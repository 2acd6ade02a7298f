package experiments

import (
	"fmt"
	"runtime"
	"sync"

	"concord/internal/ksim"
	"concord/internal/locks"
	"concord/internal/perfstat"
	"concord/internal/policy"
	"concord/internal/profile"
	"concord/internal/task"
	"concord/internal/topology"
	"concord/internal/workloads"
)

// This file is the lock × workload regression matrix behind
// `lockbench -regress`: real lock implementations on the hashtable,
// lock2 and page_fault2 workloads, plus the deterministic ksim Figure-2
// sweep at simulated 8/16/80 cores. Each cell is measured perfstat.Runs
// times; real-lock cells also carry a contended allocs/op probe, the
// number the qnode-pooling work drives to zero.

// occMode is the optimistic-tier mode the occ_read_heavy cell forces
// on its lock (`lockbench -occ`). On by default so the shipped baseline
// records the tier's throughput; Off re-measures the same workload
// through the pessimistic read lock — the ablation pair the ≥1.5×
// speedup gate compares.
var occMode = locks.OCCOn

// SetOCC selects the optimistic-tier mode for subsequent RunRegress
// sweeps.
func SetOCC(m locks.OCCMode) { occMode = m }

// RegressConfig shapes one RunRegress sweep.
type RegressConfig struct {
	Runs       int    // repeated measurements per cell (default 5)
	Threads    int    // workers for real-lock cells (default 8)
	Ops        int    // ops per worker for real-lock cells (default 2000)
	SimThreads []int  // simulated core counts (default 8, 16, 80)
	Label      string // recorded in the baseline
	// Profiler, when set, composes its sampling hooks onto every
	// real-lock cell (`lockbench -profile`): the measured numbers then
	// include continuous-profiling overhead, which is exactly what the
	// profile-overhead acceptance gate compares against a baseline.
	Profiler *profile.Continuous
}

// instrument wraps a lock constructor so each fresh lock carries the
// sweep's continuous-profiling hooks; a nil profiler is the identity.
func (c *RegressConfig) instrument(name string, mk func() locks.Lock) func() locks.Lock {
	if c.Profiler == nil {
		return mk
	}
	return func() locks.Lock {
		l := mk()
		if h, ok := l.(locks.Hooked); ok {
			h.HookSlot().Replace("cprofile", c.Profiler.Hooks(name))
		}
		return l
	}
}

func (c *RegressConfig) setDefaults() {
	if c.Runs <= 0 {
		c.Runs = 5
	}
	if c.Threads <= 0 {
		c.Threads = 8
	}
	if c.Ops <= 0 {
		c.Ops = 2000
	}
	if len(c.SimThreads) == 0 {
		c.SimThreads = []int{8, 16, 80}
	}
}

// realLocks is the roster of real lock constructors the matrix measures.
// Fresh instances per run keep profiling counters and queue state from
// leaking between cells.
func realLocks() []struct {
	name string
	mk   func() locks.Lock
} {
	return []struct {
		name string
		mk   func() locks.Lock
	}{
		{"mcs", func() locks.Lock { return locks.NewMCSLock("bench-mcs") }},
		{"clh", func() locks.Lock { return locks.NewCLHLock("bench-clh") }},
		{"qspin", func() locks.Lock { return locks.NewQSpinLock("bench-qspin") }},
		{"cna", func() locks.Lock { return locks.NewCNALock("bench-cna", 0, 0) }},
		{"shfl", func() locks.Lock { return locks.NewShflLock("bench-shfl") }},
		{"shfl-block", func() locks.Lock {
			return locks.NewShflLock("bench-shflb", locks.WithBlocking(true), locks.WithSpinBudget(32))
		}},
	}
}

// RunRegress measures the full matrix and returns it as a baseline.
func RunRegress(cfg RegressConfig) *perfstat.Baseline {
	cfg.setDefaults()
	topo := topology.Paper()
	b := &perfstat.Baseline{
		Label:   cfg.Label,
		Pooling: true, // the un-pooled path is gone; BENCH_seed.json records false
		Runs:    cfg.Runs,
	}

	// Real locks × {hashtable, lock2}.
	for _, rl := range realLocks() {
		mk := cfg.instrument(rl.name, rl.mk)
		allocs := contendedAllocsPerOp(mk, topo, cfg.Threads)
		b.Cells = append(b.Cells, perfstat.Cell{
			Lock: rl.name, Workload: "hashtable", Threads: cfg.Threads,
			AllocsPerOp: allocs,
			OpsPerMSec: perfstat.Measure(cfg.Runs, true, func() float64 {
				return workloads.RunHashTable(mk(), topo, workloads.HashTableConfig{
					Workers: cfg.Threads, OpsPerWorker: cfg.Ops,
				}).OpsPerMSec()
			}),
		})
		b.Cells = append(b.Cells, perfstat.Cell{
			Lock: rl.name, Workload: "lock2", Threads: cfg.Threads,
			AllocsPerOp: allocs,
			OpsPerMSec: perfstat.Measure(cfg.Runs, true, func() float64 {
				return workloads.RunLock2(mk(), topo, workloads.Lock2Config{
					Workers: cfg.Threads, OpsPerWorker: cfg.Ops, CSWork: 16, OutsideWork: 32,
				}).OpsPerMSec()
			}),
		})
	}

	// RWSem × page_fault2 (read-mostly, the Figure 2(a) shape).
	mkSem := cfg.instrument("rwsem", func() locks.Lock { return locks.NewRWSem("bench-rwsem") })
	b.Cells = append(b.Cells, perfstat.Cell{
		Lock: "rwsem", Workload: "page_fault2", Threads: cfg.Threads,
		AllocsPerOp: contendedAllocsPerOp(mkSem, topo, cfg.Threads),
		OpsPerMSec: perfstat.Measure(cfg.Runs, true, func() float64 {
			return workloads.RunPageFault2(mkSem().(locks.RWLock), topo,
				workloads.PageFault2Config{
					Workers: cfg.Threads, FaultsPerWorker: cfg.Ops, WriterEvery: 64,
				}).OpsPerMSec()
		}),
	})

	// Optimistic read tier × read-dominated mix: the same rwsem class as
	// page_fault2, but every read goes through OptRead, so the cell
	// measures what speculation buys over the pessimistic reader path
	// (or, with `-occ off`, what the ablation costs). The alloc probe
	// must read 0.00: a validated speculative section touches no lock
	// word and allocates nothing.
	mkOCC := func() *locks.RWSem {
		l := locks.NewRWSem("bench-occ")
		l.OCCSetMode(occMode)
		return l
	}
	occProbe := workloads.RunOCCReadHeavy(mkOCC(), topo, workloads.OCCReadHeavyConfig{
		Workers: cfg.Threads, OpsPerWorker: cfg.Ops, MeasureAlloc: true,
	})
	b.Cells = append(b.Cells, perfstat.Cell{
		Lock: "rwsem-occ", Workload: "occ_read_heavy", Threads: cfg.Threads,
		AllocsPerOp: occProbe.AllocsPerOp,
		OpsPerMSec: perfstat.Measure(cfg.Runs, true, func() float64 {
			return workloads.RunOCCReadHeavy(mkOCC(), topo, workloads.OCCReadHeavyConfig{
				Workers: cfg.Threads, OpsPerWorker: cfg.Ops * 4,
			}).OpsPerMSec()
		}),
	})

	// Growable map × distinct-key churn: a full 2^20 distinct keys
	// stream through a map preallocated for 1024 entries, live set
	// bounded by a per-worker deletion window. Preallocation alone is
	// off by three orders of magnitude here — the cell only completes
	// because online resize grows the table and folds tombstone
	// compaction into migration. A map error is a harness failure, not
	// a slow cell: no baseline is produced.
	mkChurn := func() policy.Map {
		return policy.NewGrowableHashMap("bench-churn", 8, 8, 1024)
	}
	var churnAllocs float64
	churnRun := func(measureAlloc bool) float64 {
		r, err := workloads.RunMapResizeChurn(mkChurn(), workloads.MapChurnConfig{
			Workers: cfg.Threads, MeasureAlloc: measureAlloc,
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: map_resize_churn failed: %v", err))
		}
		if measureAlloc {
			churnAllocs = r.AllocsPerOp
		}
		return r.OpsPerMSec()
	}
	churnRun(true)
	b.Cells = append(b.Cells, perfstat.Cell{
		Lock: "map-growable", Workload: "map_resize_churn", Threads: cfg.Threads,
		AllocsPerOp: churnAllocs,
		OpsPerMSec: perfstat.Measure(cfg.Runs, true, func() float64 {
			return churnRun(false)
		}),
	})

	// Map data plane × the counting-policy program: the same verified,
	// natively-compiled map_add+map_lookup policy driven against each
	// policy-map kind. These cells measure helper/map overhead on the
	// lock slow path, which is why the allocs probe (steady state, map
	// pre-populated) must read 0.00 for the preallocated kinds.
	for _, mp := range mapPlaneKinds(cfg.Threads) {
		mp := mp
		probe := workloads.RunMapPlane(mp.mk(), workloads.MapPlaneConfig{
			Workers: cfg.Threads, OpsPerWorker: cfg.Ops,
			Keys: mapPlaneKeys, NumCPUs: cfg.Threads, MeasureAlloc: true,
		})
		b.Cells = append(b.Cells, perfstat.Cell{
			Lock: mp.name, Workload: "map_plane", Threads: cfg.Threads,
			AllocsPerOp: probe.AllocsPerOp,
			OpsPerMSec: perfstat.Measure(cfg.Runs, true, func() float64 {
				return workloads.RunMapPlane(mp.mk(), workloads.MapPlaneConfig{
					Workers: cfg.Threads, OpsPerWorker: cfg.Ops * 4,
					Keys: mapPlaneKeys, NumCPUs: cfg.Threads,
				}).OpsPerMSec()
			}),
		})
	}

	// Hook plane × execution tier: real-nanosecond cost of one policy
	// hook fire (ctx fill + profiled-shuffler cmp_node + map_add),
	// interpreter vs JIT closure tier. The ksim cells below run in
	// virtual time where policy cost is invisible by construction;
	// this is the pair the JIT speedup gate compares.
	for _, tier := range []string{"vm", "jit"} {
		fire := HookPlaneFire(tier)
		b.Cells = append(b.Cells, perfstat.Cell{
			Lock: "hook-" + tier, Workload: "hook_plane", Threads: 1,
			AllocsPerOp: HookPlaneAllocsPerOp(fire, 4096),
			OpsPerMSec: perfstat.Measure(cfg.Runs, true, func() float64 {
				return HookPlaneOpsPerMSec(fire, cfg.Ops*50)
			}),
		})
	}

	// ksim Figure-2 sweep: deterministic (seeded discrete-event runs), so
	// any delta against the baseline is a behavioral change in the
	// simulated algorithms or their policies, not noise.
	c := ksim.DefaultCosts()
	cbpf := CBPFNumaCmp()
	cbpfProf := CBPFProfiledNumaCmp(policy.NewHashMap("bench-exams", 8, 8, 16))
	simSeries := []struct {
		lock, workload string
		w              ksim.Workload
		mk             func(e *ksim.Engine) ksim.SimLock
	}{
		{"sim-qspin", "lock2", lock2Sim,
			func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimQspin(e, c) }},
		{"sim-shfl", "lock2", lock2Sim,
			func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimShfl(e, c, nativeNumaCmp, 0) }},
		{"sim-shfl-cbpf", "lock2", lock2Sim,
			func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimShfl(e, c, cbpf, c.DispatchNS) }},
		// The profiled variant runs the map-heavy cmp_node policy on
		// every shuffler examination; the sim result is deterministic
		// regardless of map implementation, so this cell pins policy
		// *behavior* while the map_plane cells above pin its *cost*.
		{"sim-shfl-cbpf-prof", "lock2", lock2Sim,
			func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimShfl(e, c, cbpfProf, c.DispatchNS) }},
		{"sim-rwsem", "page_fault2", pageFault2Sim,
			func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimRWSem(e, c) }},
		{"sim-bravo", "page_fault2", pageFault2Sim,
			func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimBRAVO(e, c, 0) }},
	}
	for _, s := range simSeries {
		for _, n := range cfg.SimThreads {
			b.Cells = append(b.Cells, perfstat.Cell{
				Lock: s.lock, Workload: s.workload, Threads: n,
				AllocsPerOp: -1,
				OpsPerMSec: perfstat.Measure(2, false, func() float64 {
					return simPoint(s.mk, s.w, n)
				}),
			})
		}
	}
	return b
}

// mapPlaneKeys is the key-space size of the map_plane cells: small
// enough to stay resident, large enough that open-addressing probe
// behavior (not just a single hot slot) is in the measurement.
const mapPlaneKeys = 256

// mapPlaneKinds is the roster of policy-map constructors the map_plane
// cells measure. Capacities leave headroom over mapPlaneKeys so the
// cell measures steady-state operation, not full-map behavior.
func mapPlaneKinds(workers int) []struct {
	name string
	mk   func() policy.Map
} {
	return []struct {
		name string
		mk   func() policy.Map
	}{
		{"map-hash", func() policy.Map {
			return policy.NewHashMap("bench-map", 8, 8, 2*mapPlaneKeys)
		}},
		{"map-percpu-hash", func() policy.Map {
			return policy.NewPerCPUHashMap("bench-map", 8, 8, 2*mapPlaneKeys, workers)
		}},
		{"map-locked-hash", func() policy.Map {
			return policy.NewLockedHashMap("bench-map", 8, 8, 2*mapPlaneKeys)
		}},
	}
}

// contendedAllocsPerOp measures heap allocations per acquire/release
// pair on a deliberately contended lock: workers with pre-created tasks
// warm the lock (populating node pools and parker timers), rendezvous,
// and then hammer it while the probe brackets the phase with
// runtime.MemStats.Mallocs. Each holder yields inside its critical
// section, so the other workers pile onto the slow path even on a
// single-CPU host — every acquire measured is a *contended* acquire.
// With pooling this settles at 0; the seed behavior was ≥1.
func contendedAllocsPerOp(mk func() locks.Lock, topo *topology.Topology, workers int) float64 {
	const warmupOps, measuredOps = 64, 512
	l := mk()
	tasks := make([]*task.T, workers)
	for i := range tasks {
		tasks[i] = task.New(topo)
	}

	var warm, measured, done sync.WaitGroup
	start := make(chan struct{})
	warm.Add(workers)
	measured.Add(workers)
	done.Add(workers)
	for i := 0; i < workers; i++ {
		go func(t *task.T) {
			defer done.Done()
			for op := 0; op < warmupOps; op++ {
				l.Lock(t)
				runtime.Gosched()
				l.Unlock(t)
			}
			warm.Done()
			<-start
			for op := 0; op < measuredOps; op++ {
				l.Lock(t)
				runtime.Gosched()
				l.Unlock(t)
			}
			measured.Done()
		}(tasks[i])
	}
	warm.Wait()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	close(start)
	measured.Wait()
	runtime.ReadMemStats(&after)
	done.Wait()

	ops := float64(workers * measuredOps)
	return float64(after.Mallocs-before.Mallocs) / ops
}
