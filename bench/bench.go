package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"time"

	"concord/internal/core"
	"concord/internal/livepatch"
	"concord/internal/locks"
	"concord/internal/policydsl"
	"concord/internal/task"
	"concord/internal/topology"
)

// Run shape. One run is set-up, a warm-up, then measured slices.
const (
	// The measured time is cut into many short slices and throughput is the
	// median slice. On the host this was written on a vCPU runs a fifth
	// faster for a few hundred milliseconds at a time, whenever its
	// neighbour goes idle; between such bursts a task's rate repeats within
	// 1%. The median of 64 quarter-second slices sits in that base mode (run
	// to run it moved 0.8% on solo_nohooks); the median of 8 two-second
	// slices, each a blend of both, moved 3%.
	measuredSlices = 64
	warmupShare    = 8  // warm-up = measured time / warmupShare (2 s of 16 s)
	sampleMask     = 63 // latency is timed on 1 op in 64 per task
	maxThreads     = 4  // P = min(nproc, maxThreads)

	setupRepeats    = 17  // set-ups per run; setup_s is their median
	setupGapShare   = 160 // gap between set-ups = measured time / setupGapShare (100 ms of 16 s)
	setupLifecycles = 32  // scratch-lock lifecycles per set-up
)

// Workload shapes.
const (
	csSpin, outSpin = 16, 32                 // lock2: spin units inside and outside the lock
	htTableOrder    = 10                     // 1024 buckets, RunHashTable's default
	queueTasks      = 8                      // ht_queue_numa: the shuffler needs a queue, not cores
	queuePerSocket  = 2                      // two per socket on four sockets
	pairOutsideSpin = 2048                   // ht_pair_profiled: see setupPairProfiled
	rwSlots         = 64                     // rw_occ_gate: table width
	rwWriteEvery    = 64                     // every 64th op per task is an exclusive writer
	profileWindow   = 100 * time.Millisecond // continuous profiler window; rates are its defaults
	churnRate       = 200                    // policy_churn: lifecycles per second, open loop
	sampleRate      = 10                     // other workloads: lifecycles per second on the scratch lock
	lateAfter       = time.Millisecond       // past its due time, a lifecycle counts as late
)

// ballast is pointer-free memory the process holds so that the garbage
// collector paces itself as in a program with a real heap. The stack under
// test allocates in its hooks (13 allocations per op on ht_queue_numa);
// with nothing else live the heap is under 2 MiB, the collector starts a
// cycle every 4 MiB allocated — fifty times a second — and is marking 40%
// of the time: op latency on rw_occ_gate then has two modes, collector on
// and off, with the median in the valley between them, and read 441 to
// 659 ns from run to run. With 64 MiB live a cycle starts every 64 MiB
// allocated, a few times a second, as it would in a service. The ballast
// is never touched (no resident pages) and never scanned (no pointers),
// and live_heap_mb is reported without it.
var ballast []byte

const ballastSize = 64 << 20

// holdBallast sets the process up to allocate like a long-lived one: the
// ballast for pacing, and a ballast's worth of heap allocated, touched and
// freed again, so that what the run allocates before its first collection
// comes from pages the kernel has already handed over. Without the second
// half every allocation of a run shorter than one GC cycle is a first
// touch, and a policy lifecycle — a few hundred small allocations — costs
// twice what it costs in steady state.
func holdBallast() {
	ballast = make([]byte, ballastSize)
	const chunk = 32 << 10
	warm := make([][]byte, 0, ballastSize/chunk)
	for len(warm) < cap(warm) {
		b := make([]byte, chunk)
		for i := 0; i < chunk; i += 4096 {
			b[i] = 1
		}
		warm = append(warm, b)
	}
	warm = nil
	runtime.GC()
}

// plan is the timing of one phase of workers.
type plan struct {
	warm, slice time.Duration
	slices      int
	// traced[i] says whether slice i records spans (traced run only).
	traced []bool
}

func (p plan) total() time.Duration { return p.warm + time.Duration(p.slices)*p.slice }

func measuredPlan(seconds float64) plan {
	total := time.Duration(seconds * float64(time.Second))
	return plan{warm: total / warmupShare, slice: total / measuredSlices, slices: measuredSlices}
}

// env is one fully set-up workload: the framework, the locks and tasks
// under test, and the checks that decide whether what it measured counts.
type env struct {
	workload string
	seed     uint64
	root     string // repository root (policies/ lives there)
	topo     *topology.Topology
	fw       *core.Framework
	tr       *tracer // nil in the untraced run

	workers []*worker
	locks   []locks.Lock     // the locks under test, unwrapped
	att     *core.Attachment // the workload's own attachment, if it has one
	tiers   map[string]string

	ctl       *controller // issues lifecycles while the workers run
	setupLife lifeStats   // set-up's lifecycles on the scratch lock
	warmLife  lifeStats   // the controller's, during warm-up
	life      lifeStats   // the controller's, during the measured slices: attach_p50_us

	// check compares the final state with the tasks' private models and
	// returns how many discrepancies it found.
	check func() uint64
	// valid reports whether the policy under test was still in effect at
	// the end; a run that fails it measured some other system.
	valid func() error
}

// worker is one closed-loop task. Everything in it is owned by the
// worker's goroutine while it runs and read only after it has returned.
type worker struct {
	_       cacheLine
	t       *task.T
	op      func() bool // acquire, critical section, release: what op latency times
	outside int         // spin units of private work after each op, untimed
	sink    int64
	sample  rng
	tt      *taskTrace

	slices        []uint64
	lat           hist
	total, failed uint64
	_             cacheLine
}

func newEnv(workload string, seed uint64, root string, tr *tracer) *env {
	topo := topology.Paper()
	return &env{
		workload: workload, seed: seed, root: root, topo: topo, tr: tr,
		fw: core.New(topo), tiers: make(map[string]string),
	}
}

func (e *env) addWorker(t *task.T, outside int, op func() bool) {
	w := &worker{t: t, op: op, outside: outside, sample: newRNG(e.seed, streamSample+uint64(len(e.workers)))}
	if e.tr != nil {
		w.tt = e.tr.add(t)
	}
	e.workers = append(e.workers, w)
}

// register makes a lock visible to the framework and returns the handle
// the workload locks through: the lock itself, or its span-recording
// wrapper in the traced run.
func (e *env) register(l locks.Lock) (locks.Lock, error) {
	if err := e.fw.RegisterLock(l); err != nil {
		return nil, err
	}
	e.locks = append(e.locks, l)
	if e.tr != nil {
		return &spanLock{inner: l, tr: e.tr}, nil
	}
	return l, nil
}

func slotOf(l locks.Lock) *livepatch.Slot[locks.Hooks] { return l.(locks.Hooked).HookSlot() }

func (e *env) policyPath(name string) string {
	return filepath.Join(e.root, "policies", name+".pol")
}

// load takes a shipped policy from DSL source to the framework's registry
// the way a user does: CompileAndVerify, then LoadPolicy, which verifies,
// analyzes and picks the execution tier.
func (e *env) load(policyName string) error {
	src, err := os.ReadFile(e.policyPath(policyName))
	if err != nil {
		return err
	}
	unit, err := policydsl.CompileAndVerify(string(src))
	if err != nil {
		return fmt.Errorf("compiling %s: %w", policyName, err)
	}
	pol, err := e.fw.LoadPolicy(policyName, unit.Programs...)
	if err != nil {
		return fmt.Errorf("loading %s: %w", policyName, err)
	}
	for kind := range pol.Programs {
		e.tiers[policyName+"/"+kind.String()] = pol.Tier(kind)
	}
	return nil
}

// attach loads a shipped policy and attaches it to l under the default
// supervisor, waiting for the livepatch consistency point.
func (e *env) attach(l locks.Lock, policyName string) error {
	if err := e.load(policyName); err != nil {
		return err
	}
	att, err := e.fw.Attach(l.Name(), policyName)
	if err != nil {
		return fmt.Errorf("attaching %s: %w", policyName, err)
	}
	att.Wait()
	e.att = att
	return nil
}

// installShim puts the span-recording wrapper between the locks and the
// hook tables the framework built. Traced run only, and last in set-up.
func (e *env) installShim() {
	if e.tr == nil {
		return
	}
	for _, l := range e.locks {
		if e.ctl != nil && e.ctl.lock == l {
			continue // policy_churn: lifecycles swap this table 200 times a second and check it is restored
		}
		slot := slotOf(l)
		slot.Replace("bench-trace", e.tr.shim(slot.Peek())).Wait()
	}
}

// attachmentHealthy is the part of every validity guard that asks the
// supervisor: a tripped or quarantined attachment means the lock has been
// running on fallback hooks, which is faster and not what was asked for.
func (e *env) attachmentHealthy() error {
	if e.att == nil {
		return errors.New("no attachment")
	}
	if err := e.att.Err(); err != nil {
		return fmt.Errorf("attachment tripped: %w", err)
	}
	if st := e.att.Breaker(); st != core.BreakerClosed {
		return fmt.Errorf("breaker is %s", st)
	}
	if n := e.att.Faults(); n != 0 {
		return fmt.Errorf("%d policy faults", n)
	}
	for _, l := range e.locks {
		if s, ok := l.(interface{ SafetyError() string }); ok && s.SafetyError() != "" {
			return fmt.Errorf("lock safety check tripped: %s", s.SafetyError())
		}
	}
	return nil
}

// phase is what one run of the workers produced.
type phase struct {
	sliceOps  []float64 // ops/s per slice, all workers
	lat       hist
	ops       uint64 // ops inside the slices
	attempted uint64 // every op issued, warm-up included
	failed    uint64
	mallocs   uint64  // heap allocations inside the slices
	liveHeap  float64 // MiB after a forced GC at the end
}

// run starts every worker and the lifecycle controller, lets them
// run the plan, and waits for all of them.
func (e *env) run(p plan) phase {
	var before phase
	for _, w := range e.workers {
		w.slices = make([]uint64, p.slices)
		w.lat = hist{}
		// total and failed run on across phases: the final-state checks
		// compare them with counters the ops have been bumping all along.
		before.attempted += w.total
		before.failed += w.failed
	}
	runtime.GC() // start from a heap without set-up's garbage
	var wg sync.WaitGroup
	start := time.Now()
	for _, w := range e.workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w.run(start, p)
		}()
	}
	if e.ctl != nil {
		wg.Add(1)
		go func() {
			defer wg.Done()
			e.ctl.run(start, p)
		}()
	}
	// The main goroutine only reads allocation counters at the phase
	// boundaries and, in the traced run, flips span recording at the slice
	// boundaries; it sleeps in between and takes no P from the workers.
	var m0, m1 runtime.MemStats
	sleepUntil(start.Add(p.warm))
	runtime.ReadMemStats(&m0)
	for i := 0; i < p.slices && e.tr != nil; i++ {
		sleepUntil(start.Add(p.warm + time.Duration(i)*p.slice))
		e.tr.on.Store(p.traced[i])
	}
	sleepUntil(start.Add(p.total()))
	runtime.ReadMemStats(&m1)
	if e.tr != nil {
		e.tr.on.Store(false)
	}
	wg.Wait()

	out := phase{sliceOps: make([]float64, p.slices), mallocs: m1.Mallocs - m0.Mallocs}
	for _, w := range e.workers {
		for i, n := range w.slices {
			out.sliceOps[i] += float64(n) / p.slice.Seconds()
			out.ops += n
		}
		out.lat.merge(&w.lat)
		out.attempted += w.total
		out.failed += w.failed
	}
	out.attempted -= before.attempted
	out.failed -= before.failed
	runtime.GC()
	runtime.ReadMemStats(&m1)
	out.liveHeap = float64(m1.HeapAlloc-uint64(len(ballast))) / (1 << 20)
	return out
}

func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// spinUntil is sleepUntil for a deadline that matters to a microsecond: a
// sleeping thread on this kind of host wakes up to a millisecond late,
// which is ten policy lifecycles. It sleeps to within spinWindow of the
// deadline and yields in a loop from there.
func spinUntil(t time.Time) {
	sleepUntil(t.Add(-spinWindow))
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

const spinWindow = 2 * time.Millisecond

// run is the closed loop of one task: issue the next op when the last one
// returned. The clock is read only around sampled ops, which is also where
// the op count moves into the slice the clock says it is in; an unsampled
// op costs one xorshift step on top of the op itself.
func (w *worker) run(start time.Time, p plan) {
	var pending uint64
	for {
		spin(w.outside, &w.sink)
		if w.sample.next()&sampleMask != 0 {
			if !w.op() {
				w.failed++
			}
			w.total++
			pending++
			continue
		}
		recording := false
		t0 := time.Now()
		idx := sliceIndex(t0.Sub(start), p)
		if idx >= p.slices {
			return
		}
		if w.tt != nil && idx >= 0 {
			recording = w.tt.beginOp("op", true)
		}
		ok := w.op()
		if recording {
			w.tt.endOp()
		}
		d := time.Since(t0)
		if !ok {
			w.failed++
		}
		w.total++
		if idx >= 0 {
			w.slices[idx] += pending + 1
			w.lat.record(int64(d))
		}
		pending = 0
	}
}

// sliceIndex maps time since the start of a phase to its slice: negative
// during warm-up, p.slices or more once the phase is over.
func sliceIndex(since time.Duration, p plan) int {
	if since < p.warm {
		return -1
	}
	return int((since - p.warm) / p.slice)
}

// spin is the unit of pretend work inside and outside critical sections,
// the same loop RunLock2 uses.
func spin(n int, sink *int64) {
	for s := 0; s < n; s++ {
		*sink += int64(s)
	}
}

// lock2Op is the locked part of will-it-scale lock2: a short critical
// section that bumps a plain counter only the lock protects. The other
// part of lock2's shape, twice as much work outside the lock, is the
// worker's outside work (outSpin).
func lock2Op(l locks.Lock, t *task.T, counter *uint64) func() bool {
	st := new(struct {
		_    cacheLine
		sink int64 // written 16 times per op: not on a line another task writes
		_    cacheLine
	})
	return func() bool {
		l.Lock(t)
		*counter++
		spin(csSpin, &st.sink)
		l.Unlock(t)
		return true
	}
}

// cacheLine pads per-task state apart. Small heap objects are packed many
// to a line (the tiny allocator packs eight-byte ones two to sixteen
// bytes), and which tasks end up sharing one changes from run to run: an
// unpadded per-task counter made solo_nohooks read 2.9 M or 5.9 M ops/s
// by the luck of allocation.
type cacheLine [64]byte
