package main

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"concord/internal/core"
	"concord/internal/locks"
)

// metricDef is one named metric of the benchmark. The same names, units
// and directions are in BENCHMARK.json (spec_test.go keeps them equal);
// the regression bounds live only there.
type metricDef struct {
	name, unit, better string
}

// endToEnd is what a user of the system sees. Every workload reports all
// of them from the untraced run.
var endToEnd = []metricDef{
	{"ops_per_s", "1/s", "higher"},
	{"op_fast_ns", "ns", "lower"},
	{"attach_p50_us", "us", "lower"},
	{"live_heap_mb", "MiB", "lower"},
	{"setup_s", "s", "lower"},
}

// The per-layer ledger: one layer each, measured from the benchmark's own
// files around calls into exported functions.
//
// workloadLayer comes from the traced run of the workload itself —
// counters the layers export, read before and after, and spans. A figure
// reads 0 on a workload whose path does not include the layer.
var workloadLayer = []metricDef{
	{"locks.occ_read_share", "share", "higher"},
	{"locks.occ_abort_share", "share", "lower"},
	{"locks.acquire_p50_ns", "ns", "lower"},
	{"locks.acquire_p99_ns", "ns", "lower"},
	{"locks.release_p50_ns", "ns", "lower"},
	{"locks.contended_share", "share", "lower"},
	{"locks.shuffle_rounds_per_op", "1/op", "lower"},
	{"locks.shuffle_moves_per_op", "1/op", "higher"},
	{"locks.qnode_allocs", "count", "lower"},
	{"livepatch.drain_p50_us", "us", "lower"},
	{"livepatch.drain_p99_us", "us", "lower"},
	{"core.hook_fires_per_op", "1/op", "lower"},
	{"core.hook_self_share", "share", "lower"},
	{"core.loadpolicy_us", "us", "lower"},
	{"core.attach_us", "us", "lower"},
	{"core.detach_us", "us", "lower"},
	{"core.policy_faults", "count", "lower"},
	{"core.breaker_trips", "count", "lower"},
	{"profile.samples_per_kop", "1/kop", "higher"},
	{"profile.windows", "count", "higher"},
	{"churn.late_share", "share", "lower"},
	{"trace.overhead_share", "share", "lower"},
	// The issue lists the next two as end-to-end metrics. Both read 0 on a
	// healthy run of an unhooked lock, and the benchmark contract refuses
	// end-to-end metrics that can be 0 (a bound is a share of the parent's
	// median), so they are reported here, without a bound. Failed ops are
	// also the `failed` count of every result line.
	{"allocs_per_op", "1/op", "lower"},
	{"fail_share", "share", "lower"},
}

// probeLayer is one call into each layer in isolation (layerProbes) plus
// the paper's A/B ratio. These do not depend on the workload; every traced
// run measures them again because every traced run reports every metric.
var probeLayer = []metricDef{
	{"locks.pair_ns_nohooks", "ns", "lower"},
	{"locks.clock_ns", "ns", "lower"},
	{"locks.pair_ns_hooked", "ns", "lower"},
	{"locks.rpair_ns", "ns", "lower"},
	{"locks.optread_ns", "ns", "lower"},
	{"livepatch.pin_ns", "ns", "lower"},
	{"task.bookkeeping_ns", "ns", "lower"},
	{"core.hookfire_cmp_ns", "ns", "lower"},
	{"core.hookfire_acquired_ns", "ns", "lower"},
	{"core.f2c_ratio", "ratio", "higher"},
	{"policy.verify_us", "us", "lower"},
	{"policy.vm_exec_ns", "ns", "lower"},
	{"policy.map_update_ns", "ns", "lower"},
	{"policy.map_lookup_ns", "ns", "lower"},
	{"policy.map_retries", "count", "lower"},
	{"jit.exec_ns", "ns", "lower"},
	{"jit.exec_maps_ns", "ns", "lower"},
	{"jit.compile_us", "us", "lower"},
	{"analysis.analyze_us", "us", "lower"},
	{"policydsl.compile_us", "us", "lower"},
	{"profile.hook_ns", "ns", "lower"},
	{"host.calib_ns", "ns", "lower"},
}

var perLayer = append(append([]metricDef(nil), workloadLayer...), probeLayer...)

// runConfig is one invocation: a workload, a seed, a duration.
type runConfig struct {
	workload   string
	seed       uint64
	seconds    float64
	threads    int
	root       string
	outDir     string
	skipProbes bool // -all runs the workload-independent probes once, not five times
	probeFloor time.Duration
}

// report is what one run produced: the named metrics plus what a reader
// needs to judge them.
type report struct {
	Workload  string             `json:"workload"`
	Seed      uint64             `json:"seed"`
	Seconds   float64            `json:"seconds"`
	Traced    bool               `json:"traced"`
	Threads   int                `json:"threads"`
	Correct   bool               `json:"correct"`
	Attempted uint64             `json:"attempted"`
	Failed    uint64             `json:"failed"`
	Metrics   map[string]float64 `json:"metrics"`
	Tiers     map[string]string  `json:"tiers,omitempty"`
	Notes     []string           `json:"notes,omitempty"`
	TraceFile string             `json:"trace_file,omitempty"`
}

func (r *report) notef(format string, args ...any) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// finish applies the checks every run ends with: per-op failures, the
// final-state comparison, and the validity guard. A run that fails the
// guard returns an error and reports nothing.
func (r *report) finish(e *env, ph phase) error {
	r.Attempted, r.Failed = ph.attempted, ph.failed
	for _, st := range []*lifeStats{&e.setupLife, &e.warmLife, &e.life} {
		r.Attempted += st.done
		r.Failed += st.fails
		if st.firstErr != nil {
			r.notef("lifecycle failed: %v", st.firstErr)
		}
	}
	bad := e.check()
	if bad != 0 {
		r.notef("final state disagrees with the tasks' models in %d places", bad)
	}
	r.Correct = r.Failed == 0 && bad == 0
	r.Tiers = e.tiers
	if err := e.valid(); err != nil {
		return fmt.Errorf("%s: run is invalid, the policy under test was not in effect: %w", e.workload, err)
	}
	return nil
}

// runEndToEnd is the untraced run: set-up, warm-up, measured slices,
// checks — and then the set-up sixteen more times, for setup_s.
//
// setup_s is the median of setupRepeats set-ups timed inside this process,
// not the issue's "process start to first warm-up op". The benchmark
// contract asks for exactly that — several set-ups per run, their median —
// and it is the figure in which work moved into set-up shows: one set-up
// is 1 to 7 ms of the stack's own work (framework, locks, policy compiled,
// loaded and attached, 32 scratch lifecycles), which a single span from
// process start would bury under the runtime's start and the harness's
// 64 MiB ballast. The repeats come after the measured phase because a
// set-up leaves marks on the process: lock IDs are process-wide (IDs past
// task.MaxTrackedLockID skip two atomics per acquisition) and core.New
// points the process-wide lock safety observer at the newest framework.
// Measured first, the locks under test run in a fresh process's state.
func runEndToEnd(cfg runConfig) (*report, error) {
	r := &report{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Threads: cfg.threads,
		Metrics: make(map[string]float64)}
	t0 := time.Now()
	e, err := setup(cfg.workload, cfg.seed, cfg.root, cfg.threads, nil)
	if err != nil {
		return nil, err
	}
	setupsMS := []float64{time.Since(t0).Seconds() * 1e3}
	ph := e.run(measuredPlan(cfg.seconds))
	if err := r.finish(e, ph); err != nil {
		return nil, err
	}
	gap := time.Duration(cfg.seconds * float64(time.Second) / setupGapShare)
	for len(setupsMS) < setupRepeats {
		busyWait(gap)
		t0 := time.Now()
		if _, err := setup(cfg.workload, cfg.seed, cfg.root, cfg.threads, nil); err != nil {
			return nil, err
		}
		setupsMS = append(setupsMS, time.Since(t0).Seconds()*1e3)
	}
	attach := &e.life.toAttached
	r.Metrics["ops_per_s"] = median(ph.sliceOps)
	r.Metrics["op_fast_ns"] = ph.lat.fastMean()
	r.Metrics["attach_p50_us"] = attach.quantile(50) / 1e3
	r.Metrics["live_heap_mb"] = ph.liveHeap
	r.Metrics["setup_s"] = median(setupsMS) / 1e3
	r.Metrics["allocs_per_op"] = ratio(float64(ph.mallocs), float64(ph.ops))
	r.Metrics["fail_share"] = ratio(float64(r.Failed), float64(r.Attempted))
	if hi := highestPercentile(ph.lat.n); hi > 50 {
		r.notef("op latency: %d samples, p50 = %.0f ns, p%g = %.0f ns (highest percentile with at least %d samples beyond it)",
			ph.lat.n, ph.lat.quantile(50), hi, ph.lat.quantile(hi), minBeyond)
	}
	sorted := append([]float64(nil), ph.sliceOps...)
	sort.Float64s(sorted)
	r.notef("%d slices, ops/s: min %.0f, quartiles %.0f %.0f %.0f, max %.0f", len(sorted), sorted[0],
		sorted[len(sorted)/4], median(sorted), sorted[len(sorted)*3/4], sorted[len(sorted)-1])
	r.notef("attach latency: %d lifecycles; set-ups, ms: %.2f", attach.n, setupsMS)
	if e.ctl.open {
		r.notef("churn: %d lifecycles measured, %d started more than 1 ms late", e.life.done, e.life.late)
	}
	return r, nil
}

// busyWait keeps the calling thread computing for d. A set-up is a few
// milliseconds, and this host slows memory-heavy code by a third or more
// in bursts of tens of milliseconds to seconds: set-ups back to back all
// fall inside one burst or outside, and their median differed by 0.21 to
// 0.36 of itself from one round to the next (quartile distance, thirty
// rounds in one process); seventeen spread over 1.6 s, by 0.06 to 0.07.
// The gaps are spent computing, not sleeping: set-ups started on a
// processor just woken read 15% slower and repeated no better.
func busyWait(d time.Duration) {
	for t0 := time.Now(); time.Since(t0) < d; {
	}
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// tracedPlan is the traced run's one phase, half as long as the untraced
// one: 32 slices of which every fourth runs with span recording off, as
// the in-process reference for trace.overhead_share.
func tracedPlan(seconds float64) plan {
	total := time.Duration(seconds * float64(time.Second) / 2)
	p := plan{warm: total / warmupShare, slice: total / tracedSlices, slices: tracedSlices,
		traced: make([]bool, tracedSlices)}
	for i := range p.traced {
		p.traced[i] = i%4 != 0
	}
	return p
}

const tracedSlices = 32

// runTraced is the traced run: one set-up with the span wrapper and hook
// shim installed, a shorter phase, then the layer probes and the A/B
// ratio. It reports every per-layer metric and writes the trace file.
func runTraced(cfg runConfig) (*report, error) {
	r := &report{Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Threads: cfg.threads,
		Traced: true, Metrics: make(map[string]float64)}
	for _, d := range perLayer {
		r.Metrics[d.name] = 0
	}
	tr := newTracer()
	e, err := setup(cfg.workload, cfg.seed, cfg.root, cfg.threads, tr)
	if err != nil {
		return nil, err
	}

	before := readCounters(e)
	stopPoll := pollProfiler(e)
	p := tracedPlan(cfg.seconds)
	ph := e.run(p)
	windows, samples := stopPoll()
	after := readCounters(e)
	if err := r.finish(e, ph); err != nil {
		return nil, err
	}
	m := r.Metrics

	// counters the layers keep, read before and after
	ops := float64(ph.attempted)
	m["locks.shuffle_rounds_per_op"] = ratio(float64(after.rounds-before.rounds), ops)
	m["locks.shuffle_moves_per_op"] = ratio(float64(after.moves-before.moves), ops)
	m["locks.qnode_allocs"] = float64(after.qnodes - before.qnodes)
	reads, aborts := float64(after.occ.Reads-before.occ.Reads), float64(after.occ.Aborts-before.occ.Aborts)
	m["locks.occ_read_share"] = ratio(reads, ops)
	m["locks.occ_abort_share"] = ratio(aborts, reads+aborts)
	m["profile.windows"] = float64(windows)
	m["profile.samples_per_kop"] = ratio(float64(samples), ops/1e3)
	m["allocs_per_op"] = ratio(float64(ph.mallocs), float64(ph.ops))
	m["fail_share"] = ratio(float64(r.Failed), float64(r.Attempted))

	// the controller's lifecycles during the traced phase
	life := &e.life
	m["core.loadpolicy_us"] = life.load.quantile(50) / 1e3
	m["core.attach_us"] = life.attach.quantile(50) / 1e3
	m["core.detach_us"] = life.detach.quantile(50) / 1e3
	m["livepatch.drain_p50_us"] = life.drain.quantile(50) / 1e3
	if highestPercentile(life.drain.n) >= 99 {
		m["livepatch.drain_p99_us"] = life.drain.quantile(99) / 1e3
	} else {
		r.notef("livepatch.drain_p99_us: %d drains do not support a p99, reported as 0", life.drain.n)
	}
	m["core.policy_faults"] = float64(life.faults)
	m["core.breaker_trips"] = float64(life.trips)
	if e.att != nil {
		m["core.policy_faults"] += float64(e.att.Faults())
		if e.att.Breaker() != core.BreakerClosed {
			m["core.breaker_trips"]++
		}
	}
	m["churn.late_share"] = ratio(float64(life.late), float64(life.done))

	// spans
	var offOps, onOps []float64
	var tracedOps float64
	for i, v := range ph.sliceOps {
		if p.traced[i] {
			onOps = append(onOps, v)
			tracedOps += v * p.slice.Seconds()
		} else {
			offOps = append(offOps, v)
		}
	}
	m["trace.overhead_share"] = 1 - ratio(median(onOps), median(offOps))
	var acquire, release hist
	var fires, contended, dropped uint64
	var opTime, selfSum, hookSelf int64
	for _, w := range e.workers {
		fires += w.tt.hookFires
		contended += w.tt.contended
		dropped += w.tt.dropped
		for _, s := range w.tt.spans {
			switch s.Name {
			case "locks.Lock", "locks.OptRead":
				acquire.record(s.End - s.Start)
			case "locks.Unlock":
				release.record(s.End - s.Start)
			}
		}
		opTime += rootTime(w.tt.spans, "op")
		for name, self := range selfTimes(w.tt.spans) {
			selfSum += self
			if strings.HasPrefix(name, "core.hook.") {
				hookSelf += self
			}
		}
	}
	m["locks.acquire_p50_ns"] = acquire.quantile(50)
	m["locks.release_p50_ns"] = release.quantile(50)
	if highestPercentile(acquire.n) >= 99 {
		m["locks.acquire_p99_ns"] = acquire.quantile(99)
	} else {
		r.notef("locks.acquire_p99_ns: %d acquire spans do not support a p99, reported as 0", acquire.n)
	}
	m["locks.contended_share"] = ratio(float64(contended), tracedOps)
	m["core.hook_fires_per_op"] = ratio(float64(fires), tracedOps)
	m["core.hook_self_share"] = ratio(float64(hookSelf), float64(opTime))
	r.notef("trace: %d acquire spans, %d ops not recorded for lack of buffer; self times sum to %.4f of the op spans",
		acquire.n, dropped, ratio(float64(selfSum), float64(opTime)))
	if opTime > 0 && (float64(selfSum) < 0.95*float64(opTime) || float64(selfSum) > 1.05*float64(opTime)) {
		return nil, fmt.Errorf("trace is inconsistent: self times sum to %d ns, op spans to %d ns", selfSum, opTime)
	}
	if r.TraceFile, err = tr.write(cfg.outDir, cfg.workload); err != nil {
		return nil, fmt.Errorf("writing trace: %w", err)
	}

	if cfg.skipProbes {
		return r, nil
	}
	probes, err := layerProbes(cfg.root, cfg.probeFloor)
	if err != nil {
		return nil, fmt.Errorf("layer probes: %w", err)
	}
	for name, v := range probes {
		m[name] = v
	}
	if m["core.f2c_ratio"], err = f2cRatio(cfg.seed, cfg.root, time.Duration(cfg.seconds*float64(time.Second)/8), 2); err != nil {
		return nil, err
	}
	return r, nil
}

// counters are the cumulative statistics the layers export, summed over
// the locks under test.
type counters struct {
	rounds, moves, qnodes int64
	occ                   locks.OCCStats
}

func readCounters(e *env) counters {
	c := counters{qnodes: locks.QnodeAllocs()}
	for _, l := range e.locks {
		if s, ok := l.(*locks.ShflLock); ok {
			rounds, moves, _ := s.ShuffleStats()
			c.rounds += rounds
			c.moves += moves
		}
		if o, ok := l.(locks.OCCCapable); ok {
			c.occ = o.OCCStats()
		}
	}
	return c
}

// pollProfiler watches the continuous profiler, if the workload has one,
// for the windows it seals: the profiler publishes only the last sealed
// window, so counting them needs a reader that looks more often than the
// window length. It sleeps between looks and takes no thread for long.
// The returned function stops it and gives the windows seen and the raw
// samples in them.
func pollProfiler(e *env) func() (windows int, samples int64) {
	cprof := e.fw.ContinuousProfiler()
	if cprof == nil {
		return func() (int, int64) { return 0, 0 }
	}
	var (
		wg      sync.WaitGroup
		stop    = make(chan struct{})
		windows int
		samples int64
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(cprof.Window() / 5)
		defer tick.Stop()
		var last int64
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
			}
			for _, l := range e.locks {
				if s, ok := cprof.SnapshotFor(l.Name()); ok && s.StartNS != last {
					last = s.StartNS
					windows++
					samples += s.Samples
				}
			}
		}
	}()
	return func() (int, int64) {
		close(stop)
		wg.Wait()
		return windows, samples
	}
}
