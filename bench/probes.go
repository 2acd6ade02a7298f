package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"time"

	"concord/internal/core"
	"concord/internal/livepatch"
	"concord/internal/locks"
	"concord/internal/policy"
	"concord/internal/policy/analysis"
	"concord/internal/policy/jit"
	"concord/internal/policydsl"
	"concord/internal/profile"
	"concord/internal/task"
)

// probeFloor is the shortest batch a probe reports from. A probe calls one
// exported function of one layer in a loop on one goroutine and divides:
// cheap enough to run in every traced run, long enough that the clock
// reads at either end do not matter.
const probeFloor = 200 * time.Millisecond

// probe returns nanoseconds per call of f(n)/n for a batch of at least
// probeFloor, sizing the batch from a short pilot.
func probe(floor time.Duration, f func(n int)) float64 {
	n := 256
	for {
		t0 := time.Now()
		f(n)
		d := time.Since(t0)
		if d >= floor {
			return float64(d) / float64(n)
		}
		if d < time.Millisecond {
			n *= 16
		} else {
			n = int(float64(n)*float64(floor)/float64(d)*1.1) + 1
		}
	}
}

var probeSink uint64

// layerProbes measures one call into each layer in isolation. The values
// do not depend on the workload: they are the unit costs the workloads'
// end-to-end numbers are made of, and the first thing to look at when one
// of those moves.
func layerProbes(root string, floor time.Duration) (map[string]float64, error) {
	m := make(map[string]float64)
	each := func(f func()) func(int) {
		return func(n int) {
			for i := 0; i < n; i++ {
				f()
			}
		}
	}
	e := newEnv("probes", 0, root, nil)
	t := task.NewOnCPU(e.topo, 0)
	peer := task.NewOnCPU(e.topo, e.topo.CoresPerSocket()) // next socket over

	// harness and clock
	m["host.calib_ns"] = probe(floor, func(n int) {
		r := rng(88172645463325252)
		for i := 0; i < n*1000; i++ {
			r.next()
		}
		probeSink += uint64(r)
	})
	m["locks.clock_ns"] = probe(floor, each(func() { probeSink += uint64(time.Now().UnixNano()) }))

	// locks, livepatch, task
	bare := locks.NewShflLock("probe-bare")
	m["locks.pair_ns_nohooks"] = probe(floor, each(func() { bare.Lock(t); bare.Unlock(t) }))

	hooked := locks.NewShflLock("probe-hooked")
	nop := func(*locks.Event) {}
	hooked.HookSlot().Replace("empty", &locks.Hooks{Name: "empty",
		OnAcquire: nop, OnContended: nop, OnAcquired: nop, OnRelease: nop}).Wait()
	m["locks.pair_ns_hooked"] = probe(floor, each(func() { hooked.Lock(t); hooked.Unlock(t) }))

	sem := locks.NewRWSem("probe-rw")
	m["locks.rpair_ns"] = probe(floor, each(func() { sem.RLock(t); sem.RUnlock(t) }))
	sem.OCCSetMode(locks.OCCOn)
	section := func() { probeSink++ }
	m["locks.optread_ns"] = probe(floor, each(func() { sem.OptRead(t, section) }))

	slot := livepatch.NewSlot(&locks.Hooks{Name: "probe"})
	m["livepatch.pin_ns"] = probe(floor, each(func() {
		_, held := slot.Get()
		held.Release()
	}))
	m["task.bookkeeping_ns"] = probe(floor, each(func() {
		t.NoteAcquired(1)
		t.EnterCS(1)
		t.ExitCS(2)
		t.NoteReleased(1)
	}))

	// core: the closures the framework builds, fired on a fixed input
	fire := func(lockName, policyName string) (*locks.Hooks, *core.Policy, error) {
		l := locks.NewShflLock(lockName)
		if err := e.fw.RegisterLock(l); err != nil {
			return nil, nil, err
		}
		if err := e.attach(l, policyName); err != nil {
			return nil, nil, err
		}
		pol, _ := e.fw.Policy(policyName)
		return l.HookSlot().Peek(), pol, nil
	}
	numaHooks, numaPol, err := fire("probe-numa", "numa")
	if err != nil {
		return nil, err
	}
	info := locks.ShuffleInfo{LockID: 1, NowNS: 1000, QueueLen: 4, Round: 1, Batch: 1,
		Shuffler: &locks.Waiter{Task: t, EnqueueNS: 100}, Curr: &locks.Waiter{Task: peer, EnqueueNS: 200}}
	m["core.hookfire_cmp_ns"] = probe(floor, each(func() {
		if numaHooks.CmpNode(&info) {
			probeSink++
		}
	}))
	profHooks, profPol, err := fire("probe-profile", "profile-waits")
	if err != nil {
		return nil, err
	}
	ev := locks.Event{LockID: 2, Task: t, NowNS: 1000, WaitNS: 100, QueueLen: 1}
	m["core.hookfire_acquired_ns"] = probe(floor, each(func() { profHooks.OnAcquired(&ev) }))

	// policy and jit: the same two programs without the adapter around them
	cmpProg, cmpCtx := numaPol.Programs[policy.KindCmpNode], policy.NewCtx(policy.KindCmpNode)
	cmpCtx.Set("curr_socket", 1).Set("shuffler_socket", 1)
	env := &policy.TestEnv{}
	var execErr error
	m["policy.vm_exec_ns"] = probe(floor, each(func() {
		r, err := policy.Exec(cmpProg, cmpCtx, env)
		probeSink += r
		if err != nil {
			execErr = err
		}
	}))
	cmpFn, err := jit.Compile(cmpProg)
	if err != nil {
		return nil, fmt.Errorf("jit.Compile(numa): %w", err)
	}
	m["jit.exec_ns"] = probe(floor, each(func() {
		r, err := cmpFn(cmpCtx, env)
		probeSink += r
		if err != nil {
			execErr = err
		}
	}))
	acqFn, err := jit.Compile(profPol.Programs[policy.KindLockAcquired])
	if err != nil {
		return nil, fmt.Errorf("jit.Compile(profile-waits): %w", err)
	}
	acqCtx := policy.NewCtx(policy.KindLockAcquired)
	acqCtx.Set("lock_id", 2).Set("wait_ns", 100)
	m["jit.exec_maps_ns"] = probe(floor, each(func() {
		if _, err := acqFn(acqCtx, env); err != nil {
			execErr = err
		}
	}))
	if execErr != nil {
		return nil, fmt.Errorf("policy execution probe faulted: %w", execErr)
	}

	// policy maps: 8-byte keys and values, 256 live keys
	hm := policy.NewHashMap("probe", 8, 8, 512)
	var keys [256][8]byte
	for i := range keys {
		binary.LittleEndian.PutUint64(keys[i][:], uint64(i)*0x9e3779b97f4a7c15)
	}
	val := []uint64{0}
	var i int
	m["policy.map_update_ns"] = probe(floor, each(func() {
		val[0]++
		if err := hm.Update(keys[i&255][:], val, 0); err != nil {
			execErr = err
		}
		i++
	}))
	m["policy.map_lookup_ns"] = probe(floor, each(func() {
		if v := hm.Lookup(keys[i&255][:], 0); v != nil {
			probeSink += v[0]
		}
		i++
	}))
	if execErr != nil {
		return nil, fmt.Errorf("map probe: %w", execErr)
	}
	m["policy.map_retries"] = float64(hm.MapStats().Retries)

	// profile: the continuous profiler's per-event gate at its default rate
	cprof := profile.NewContinuous(profile.ContinuousConfig{})
	cprof.SetEnabled(true)
	onAcquired := cprof.Hooks("probe").OnAcquired
	m["profile.hook_ns"] = probe(floor, each(func() { onAcquired(&ev) }))

	// control-plane stages, per policy file, averaged over the shipped ten
	srcs := make([]string, len(shippedPolicies))
	for i, name := range shippedPolicies {
		b, err := os.ReadFile(e.policyPath(name))
		if err != nil {
			return nil, err
		}
		srcs[i] = string(b)
	}
	var stage struct{ compile, verify, analyze, jit time.Duration }
	var stageErr error
	timed := func(d *time.Duration, f func()) {
		t0 := time.Now()
		f()
		*d += time.Since(t0)
	}
	files := 0
	for begin := time.Now(); time.Since(begin) < 2*floor; {
		for _, src := range srcs {
			var unit *policydsl.CompiledUnit
			timed(&stage.compile, func() { unit, stageErr = policydsl.Compile(src) })
			if stageErr != nil {
				return nil, stageErr
			}
			files++
			for _, p := range unit.Programs {
				timed(&stage.verify, func() { _, stageErr = policy.Verify(p) })
				if stageErr != nil {
					return nil, stageErr
				}
				timed(&stage.analyze, func() { _, stageErr = analysis.Analyze(p) })
				if stageErr != nil {
					return nil, stageErr
				}
				// An unsupported program is a tier decision, not an error.
				timed(&stage.jit, func() { _, _ = jit.Compile(p) })
			}
		}
	}
	perFile := func(d time.Duration) float64 { return float64(d) / float64(files) / 1e3 }
	m["policydsl.compile_us"] = perFile(stage.compile)
	m["policy.verify_us"] = perFile(stage.verify)
	m["analysis.analyze_us"] = perFile(stage.analyze)
	m["jit.compile_us"] = perFile(stage.jit)
	return m, nil
}

// f2cRatio is the paper's own number, Figure 2(c): throughput of the
// hashtable on a ShflLock with numa.pol attached through the framework,
// over the same lock with the pre-compiled locks.NUMAHooks() installed,
// from interleaved runs in one process, each cut into eight slices whose
// median counts. It is reported, not gated: its denominator is in-repo
// code.
func f2cRatio(seed uint64, root string, slice time.Duration, pairs int) (float64, error) {
	e := newEnv("ht_queue_numa", seed, root, nil)
	raw := locks.NewShflLock("ht")
	l, err := e.register(raw)
	if err != nil {
		return 0, err
	}
	if err := e.load("numa"); err != nil {
		return 0, err
	}
	e.addHTWorkers(l, placement(seed, e.topo, queueTasks, queuePerSocket), 0)
	p := plan{warm: slice / 4, slice: slice / 8, slices: 8}
	var concord, native []float64
	for i := 0; i < pairs; i++ {
		att, err := e.fw.Attach("ht", "numa")
		if err != nil {
			return 0, err
		}
		att.Wait()
		concord = append(concord, e.run(p).sliceOps...)
		if err := att.Err(); err != nil {
			return 0, fmt.Errorf("f2c: numa.pol tripped: %w", err)
		}
		patch, err := e.fw.Detach("ht")
		if err != nil {
			return 0, err
		}
		patch.Wait()
		raw.HookSlot().Replace("numa-native", locks.NUMAHooks()).Wait()
		native = append(native, e.run(p).sliceOps...)
	}
	if median(native) == 0 {
		return 0, fmt.Errorf("f2c: native baseline completed no ops")
	}
	return median(concord) / median(native), nil
}
