// Benchmarks regenerating every figure of the paper's evaluation (§5)
// plus the ablations indexed in DESIGN.md. Run:
//
//	go test -bench=. -benchmem
//
// Figure panels report their headline metric via b.ReportMetric:
// ops/ms for throughput panels, "norm" (normalized throughput) for the
// overhead panel. EXPERIMENTS.md interprets the output against the
// paper's plots.
package concord_test

import (
	"fmt"
	"os"
	"sync/atomic"
	"testing"
	"time"

	"concord"
	"concord/internal/experiments"
	"concord/internal/ksim"
	"concord/internal/locks"
	"concord/internal/policy"
	"concord/internal/policy/jit"
	"concord/internal/topology"
	"concord/internal/workloads"
)

// benchThreads is the figure x-axis, trimmed to keep bench time sane;
// `concordctl figures` runs the full 12-point sweep.
var benchThreads = []int{1, 10, 40, 80}

// simBench runs one simulated series point per iteration and reports
// throughput in virtual ops/ms.
func simBench(b *testing.B, mk func(e *ksim.Engine) ksim.SimLock, w ksim.Workload, threads int) {
	b.Helper()
	var last float64
	for i := 0; i < b.N; i++ {
		e := ksim.NewEngine(topology.Paper(), uint64(threads)*7919+1)
		res := ksim.RunClosedLoop(e, mk(e), e.NewProcs(threads), w, experiments.SimDuration)
		last = res.OpsPerMSec()
	}
	b.ReportMetric(last, "vops/ms")
}

// BenchmarkFigure2a regenerates Figure 2(a): page_fault2, series Stock
// (neutral rwsem), BRAVO, Concord-BRAVO.
func BenchmarkFigure2a(b *testing.B) {
	c := ksim.DefaultCosts()
	w := ksim.Workload{Name: "page_fault2", ThinkNS: 1400, CSNS: 500, ReadFraction: 1, JitterPct: 15}
	series := map[string]func(e *ksim.Engine) ksim.SimLock{
		"Stock":         func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimRWSem(e, c) },
		"BRAVO":         func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimBRAVO(e, c, 0) },
		"Concord-BRAVO": func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimBRAVO(e, c, c.DispatchNS) },
	}
	for _, name := range []string{"Stock", "BRAVO", "Concord-BRAVO"} {
		for _, n := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", name, n), func(b *testing.B) {
				simBench(b, series[name], w, n)
			})
		}
	}
}

// BenchmarkFigure2b regenerates Figure 2(b): lock2, series Stock
// (qspinlock), ShflLock (pre-compiled NUMA policy), Concord-ShflLock
// (verified cBPF policy + hook dispatch).
func BenchmarkFigure2b(b *testing.B) {
	c := ksim.DefaultCosts()
	w := ksim.Workload{Name: "lock2", ThinkNS: 300, CSNS: 250, JitterPct: 10}
	cbpf := experiments.CBPFNumaCmp()
	native := func(s, cu *ksim.Proc) bool { return s.Socket == cu.Socket }
	series := map[string]func(e *ksim.Engine) ksim.SimLock{
		"Stock":            func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimQspin(e, c) },
		"ShflLock":         func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimShfl(e, c, native, 0) },
		"Concord-ShflLock": func(e *ksim.Engine) ksim.SimLock { return ksim.NewSimShfl(e, c, cbpf, c.DispatchNS) },
	}
	for _, name := range []string{"Stock", "ShflLock", "Concord-ShflLock"} {
		for _, n := range benchThreads {
			b.Run(fmt.Sprintf("%s/threads=%d", name, n), func(b *testing.B) {
				simBench(b, series[name], w, n)
			})
		}
	}
}

// BenchmarkFigure2c regenerates Figure 2(c) on the real locks: the
// global-lock hash table on ShflLock (pre-compiled NUMA hooks) vs
// Concord-ShflLock (cBPF policy through the framework). The reported
// "norm" metric is Concord's normalized throughput; the paper's worst
// case is ~0.8.
func BenchmarkFigure2c(b *testing.B) {
	topo := topology.Paper()
	for _, n := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			var norm float64
			for i := 0; i < b.N; i++ {
				pts := experiments.Figure2cReal([]int{n}, 2000)
				norm = pts[0].Value
			}
			b.ReportMetric(norm, "norm")
			_ = topo
		})
	}
}

// BenchmarkFigure2cSim is the simulator rendition of Figure 2(c) at the
// full 80-thread scale.
func BenchmarkFigure2cSim(b *testing.B) {
	for _, n := range benchThreads {
		b.Run(fmt.Sprintf("threads=%d", n), func(b *testing.B) {
			var norm float64
			for i := 0; i < b.N; i++ {
				norm = experiments.Figure2cSim([]int{n})[0].Value
			}
			b.ReportMetric(norm, "norm")
		})
	}
}

// BenchmarkHookDispatch (ablation A1) measures the per-operation cost of
// the hook mechanism on an uncontended real ShflLock: no hooks vs
// pre-compiled Go hooks vs verified cBPF through the framework.
func BenchmarkHookDispatch(b *testing.B) {
	topo := topology.Paper()
	run := func(b *testing.B, l *locks.ShflLock) {
		t := concord.NewTask(topo)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			l.Lock(t)
			l.Unlock(t)
		}
	}
	b.Run("nohooks", func(b *testing.B) {
		run(b, locks.NewShflLock("bare"))
	})
	b.Run("native", func(b *testing.B) {
		l := locks.NewShflLock("native")
		l.HookSlot().Replace("numa", locks.NUMAHooks())
		run(b, l)
	})
	b.Run("cbpf", func(b *testing.B) {
		fw := concord.New(topo)
		l := locks.NewShflLock("cbpf")
		if err := fw.RegisterLock(l); err != nil {
			b.Fatal(err)
		}
		if _, err := fw.LoadPolicy("numa", experiments.NUMACmpProgram()); err != nil {
			b.Fatal(err)
		}
		att, err := fw.Attach("cbpf", "numa")
		if err != nil {
			b.Fatal(err)
		}
		att.Wait()
		run(b, l)
	})
	b.Run("cbpf-profiling", func(b *testing.B) {
		// All four profiling hooks incrementing a per-CPU map — the
		// heaviest sane profiling configuration.
		fw := concord.New(topo)
		l := locks.NewShflLock("cbpf-prof")
		if err := fw.RegisterLock(l); err != nil {
			b.Fatal(err)
		}
		counts := policy.NewPerCPUArrayMap("c", 8, 4, topo.NumCPUs())
		mkProg := func(name string, kind policy.Kind, idx int64) *policy.Program {
			return policy.NewBuilder(name, kind).
				StoreStackImm(policy.OpStW, -4, idx).
				LoadMapPtr(policy.R1, counts).
				MovReg(policy.R2, policy.RFP).
				AddImm(policy.R2, -4).
				MovImm(policy.R3, 1).
				Call(policy.HelperMapAdd).
				ReturnImm(0).
				MustProgram()
		}
		if _, err := fw.LoadPolicy("prof",
			mkProg("a", policy.KindLockAcquire, 0),
			mkProg("b", policy.KindLockContended, 1),
			mkProg("c", policy.KindLockAcquired, 2),
			mkProg("d", policy.KindLockRelease, 3)); err != nil {
			b.Fatal(err)
		}
		att, err := fw.Attach("cbpf-prof", "prof")
		if err != nil {
			b.Fatal(err)
		}
		att.Wait()
		run(b, l)
	})
}

// BenchmarkVerifier (ablation A2) measures verification cost for a
// small policy and a maximal straight-line program.
func BenchmarkVerifier(b *testing.B) {
	b.Run("numa-7insn", func(b *testing.B) {
		src := experiments.NUMACmpProgram()
		for i := 0; i < b.N; i++ {
			p := &policy.Program{Name: "numa", Kind: src.Kind, Insns: src.Insns, Maps: src.Maps}
			if _, err := policy.Verify(p); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("max-4096insn", func(b *testing.B) {
		builder := policy.NewBuilder("max", policy.KindLockAcquire)
		for i := 0; i < policy.MaxInsns-2; i++ {
			builder.MovImm(policy.R2, int64(i))
		}
		builder.ReturnImm(0)
		proto := builder.MustProgram()
		for i := 0; i < b.N; i++ {
			p := &policy.Program{Name: "max", Kind: proto.Kind, Insns: proto.Insns}
			if _, err := policy.Verify(p); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkVMExec measures one interpreted policy execution (the cost
// the DispatchNS/PolicyExecNS cost-model constants stand for).
func BenchmarkVMExec(b *testing.B) {
	prog := experiments.NUMACmpProgram()
	ctx := policy.NewCtx(policy.KindCmpNode).
		Set("curr_socket", 3).Set("shuffler_socket", 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := policy.Exec(prog, ctx, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShufflePolicies (ablation A3) compares shuffle policies on
// simulated lock2 at 80 threads.
func BenchmarkShufflePolicies(b *testing.B) {
	c := ksim.DefaultCosts()
	w := ksim.Workload{ThinkNS: 300, CSNS: 250, JitterPct: 10}
	cbpf := experiments.CBPFNumaCmp()
	cases := []struct {
		name string
		cmp  ksim.CmpFunc
	}{
		{"fifo", nil},
		{"numa-native", func(s, cu *ksim.Proc) bool { return s.Socket == cu.Socket }},
		{"numa-cbpf", cbpf},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			simBench(b, func(e *ksim.Engine) ksim.SimLock {
				return ksim.NewSimShfl(e, c, tc.cmp, 0)
			}, w, 80)
		})
	}
}

// BenchmarkLockInheritance (ablation A4) measures victim throughput in
// the two-lock chain scenario with and without the inheritance policy.
func BenchmarkLockInheritance(b *testing.B) {
	topo := topology.Paper()
	run := func(b *testing.B, withPolicy bool) {
		var victim int64
		for i := 0; i < b.N; i++ {
			l1 := locks.NewShflLock("L1")
			l2 := locks.NewShflLock("L2", locks.WithMaxRounds(64))
			if withPolicy {
				l2.HookSlot().Replace("inherit", locks.InheritanceHooks())
			}
			res := workloads.RunLockInheritance(l1, l2, topo, workloads.InheritConfig{
				ChainWorkers: 2, L2Workers: 6, VictimWorkers: 2,
				Duration: 50 * time.Millisecond,
			})
			victim = res.VictimOps
		}
		b.ReportMetric(float64(victim), "victim-ops")
	}
	b.Run("fifo", func(b *testing.B) { run(b, false) })
	b.Run("inheritance", func(b *testing.B) { run(b, true) })
}

// BenchmarkSchedulerSubversion (ablation A5) measures short-CS task
// progress with and without the SCL-style occupancy policy.
func BenchmarkSchedulerSubversion(b *testing.B) {
	topo := topology.Paper()
	run := func(b *testing.B, withPolicy bool) {
		var mice int64
		for i := 0; i < b.N; i++ {
			l := locks.NewShflLock("l", locks.WithMaxRounds(64))
			if withPolicy {
				l.HookSlot().Replace("scl", locks.SCLHooks())
			}
			res := workloads.RunSchedulerSubversion(l, topo, workloads.SubversionConfig{
				Hogs: 2, Mice: 6, HogWork: 4000, MiceWork: 100,
				Duration: 50 * time.Millisecond,
			})
			mice = res.MiceOps
		}
		b.ReportMetric(float64(mice), "mice-ops")
	}
	b.Run("fifo", func(b *testing.B) { run(b, false) })
	b.Run("scl", func(b *testing.B) { run(b, true) })
}

// BenchmarkLockSwitching (ablation A6) measures read throughput of the
// page-fault workload before and after switching the lock design from
// neutral (bias off → underlying rwsem) to reader-biased (bias on) —
// the §3.1.1 lock-switching use case.
func BenchmarkLockSwitching(b *testing.B) {
	topo := topology.Paper()
	run := func(b *testing.B, biased bool) {
		var tput float64
		for i := 0; i < b.N; i++ {
			bravo := locks.NewBRAVO("mmap_sem", locks.NewRWSem("under"))
			bravo.SetBias(biased)
			res := workloads.RunPageFault2(bravo, topo, workloads.PageFault2Config{
				Workers: 8, FaultsPerWorker: 2000, PagesPerWorker: 64,
			})
			if !biased {
				bravo.SetBias(false) // keep it off through the run
			}
			tput = res.OpsPerMSec()
		}
		b.ReportMetric(tput, "faults/ms")
	}
	b.Run("neutral", func(b *testing.B) { run(b, false) })
	b.Run("reader-biased", func(b *testing.B) { run(b, true) })
}

// BenchmarkProfilingOverhead (ablation A7) measures the hash-table
// workload with and without the selective profiler attached.
func BenchmarkProfilingOverhead(b *testing.B) {
	topo := topology.Paper()
	run := func(b *testing.B, profiled bool) {
		var tput float64
		for i := 0; i < b.N; i++ {
			fw := concord.New(topo)
			l := locks.NewShflLock("ht")
			if err := fw.RegisterLock(l); err != nil {
				b.Fatal(err)
			}
			if profiled {
				if err := fw.StartProfiling("ht", concord.NewProfiler()); err != nil {
					b.Fatal(err)
				}
			}
			res := workloads.RunHashTable(l, topo, workloads.HashTableConfig{
				Workers: 4, OpsPerWorker: 3000, ReadFraction: 0.8,
			})
			tput = res.OpsPerMSec()
		}
		b.ReportMetric(tput, "ops/ms")
	}
	b.Run("bare", func(b *testing.B) { run(b, false) })
	b.Run("profiled", func(b *testing.B) { run(b, true) })
}

// BenchmarkLivepatch measures the patch primitives: pin/release on the
// hot path and a full replace+drain cycle.
func BenchmarkLivepatch(b *testing.B) {
	b.Run("get-release", func(b *testing.B) {
		l := locks.NewShflLock("l")
		slot := l.HookSlot()
		slot.Replace("h", locks.NUMAHooks())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, held := slot.Get()
			held.Release()
		}
	})
	b.Run("replace-wait", func(b *testing.B) {
		l := locks.NewShflLock("l")
		slot := l.HookSlot()
		h := locks.NUMAHooks()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			slot.Replace("h", h).Wait()
		}
	})
}

// BenchmarkSubversionSim (ablation A5, simulated) is the deterministic
// multicore rendition of the scheduler-subversion scenario: mean mouse
// (short-CS task) lock wait under FIFO vs the SCL-style policy.
func BenchmarkSubversionSim(b *testing.B) {
	run := func(b *testing.B, scl bool) {
		var res experiments.SubversionResult
		for i := 0; i < b.N; i++ {
			res = experiments.SubversionSim(6, 4, scl)
		}
		b.ReportMetric(res.MiceWaitMean/1e3, "mice-wait-µs")
		b.ReportMetric(float64(res.MiceOps), "mice-ops")
	}
	b.Run("fifo", func(b *testing.B) { run(b, false) })
	b.Run("scl", func(b *testing.B) { run(b, true) })
}

// BenchmarkAMPSim (ablation A8) measures total lock throughput on a
// simulated big.LITTLE machine under FIFO vs the AMP-aware policy.
func BenchmarkAMPSim(b *testing.B) {
	run := func(b *testing.B, amp bool) {
		var res experiments.AMPResult
		for i := 0; i < b.N; i++ {
			res = experiments.AMPSim(8, 8, amp)
		}
		b.ReportMetric(float64(res.Ops), "total-ops")
		b.ReportMetric(float64(res.LittleOps), "little-ops")
	}
	b.Run("fifo", func(b *testing.B) { run(b, false) })
	b.Run("amp", func(b *testing.B) { run(b, true) })
}

// BenchmarkLockAlgorithms (ablation A9) compares the library's mutual-
// exclusion paths on the lock2 workload at fixed concurrency: ShflLock in
// FIFO order, ShflLock with the NUMA cmp_node policy, and RWSem's writer
// side.
func BenchmarkLockAlgorithms(b *testing.B) {
	topo := topology.Paper()
	mk := []struct {
		name string
		ctor func() locks.Lock
	}{
		{"shfl-fifo", func() locks.Lock { return locks.NewShflLock("l") }},
		{"shfl-numa", func() locks.Lock {
			l := locks.NewShflLock("l", locks.WithMaxRounds(8))
			l.HookSlot().Replace("numa", locks.NUMAHooks())
			return l
		}},
		{"rwsem-w", func() locks.Lock { return locks.NewRWSem("l") }},
	}
	for _, tc := range mk {
		b.Run(tc.name, func(b *testing.B) {
			l := tc.ctor()
			var tput float64
			for i := 0; i < b.N; i++ {
				res := workloads.RunLock2(l, topo, workloads.Lock2Config{
					Workers: 8, OpsPerWorker: 2000, CSWork: 8, OutsideWork: 8,
				})
				tput = res.OpsPerMSec()
			}
			b.ReportMetric(tput, "ops/ms")
		})
	}
}

// BenchmarkRWLockAlgorithms compares the readers-writer designs, RWSem
// and BRAVO over it, on the read-heavy page_fault2 workload.
func BenchmarkRWLockAlgorithms(b *testing.B) {
	topo := topology.Paper()
	mk := []struct {
		name string
		ctor func() locks.RWLock
	}{
		{"rwsem", func() locks.RWLock { return locks.NewRWSem("l") }},
		{"bravo", func() locks.RWLock { return locks.NewBRAVO("l", locks.NewRWSem("u")) }},
	}
	for _, tc := range mk {
		b.Run(tc.name, func(b *testing.B) {
			l := tc.ctor()
			var tput float64
			for i := 0; i < b.N; i++ {
				res := workloads.RunPageFault2(l, topo, workloads.PageFault2Config{
					Workers: 8, FaultsPerWorker: 2000, PagesPerWorker: 64,
				})
				tput = res.OpsPerMSec()
			}
			b.ReportMetric(tput, "faults/ms")
		})
	}
}

// BenchmarkVMExecCompiled measures a natively compiled policy execution
// against the interpreted BenchmarkVMExec (the §4.2 "translated into
// native code" ablation).
func BenchmarkVMExecCompiled(b *testing.B) {
	prog := experiments.NUMACmpProgram()
	fn := jit.MustCompile(prog)
	ctx := policy.NewCtx(policy.KindCmpNode).
		Set("curr_socket", 3).Set("shuffler_socket", 3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := fn(ctx, nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRenameChain (A4, deep-chain variant) runs the 12-lock
// rename-style chain with FIFO vs inheritance policy on every chain
// lock, reporting mean rename latency.
func BenchmarkRenameChain(b *testing.B) {
	topo := topology.Paper()
	run := func(b *testing.B, withPolicy bool) {
		var mean time.Duration
		for i := 0; i < b.N; i++ {
			chain := make([]locks.Lock, 12)
			for j := range chain {
				l := locks.NewShflLock("chain", locks.WithMaxRounds(4))
				if withPolicy {
					l.HookSlot().Replace("inherit", locks.InheritanceHooks())
				}
				chain[j] = l
			}
			res := workloads.RunRenameChain(chain, topo, workloads.RenameConfig{
				ChainLen: 12, Renamers: 2, PointWorkers: 6,
				Duration: 50 * time.Millisecond,
			})
			mean = res.MeanRenameWait()
		}
		b.ReportMetric(float64(mean.Microseconds()), "rename-wait-µs")
	}
	b.Run("fifo", func(b *testing.B) { run(b, false) })
	b.Run("inheritance", func(b *testing.B) { run(b, true) })
}

// BenchmarkTelemetryOverhead measures the cost of the full telemetry
// layer (per-lock counters + wait/hold histograms + trace ring, all
// updated on every acquisition) against the same hash-table workload on
// a bare framework. The acceptance bar is <= 20% throughput loss.
func BenchmarkTelemetryOverhead(b *testing.B) {
	topo := topology.Paper()
	run := func(b *testing.B, opts ...concord.Option) {
		var tput float64
		for i := 0; i < b.N; i++ {
			fw := concord.New(topo, opts...)
			l := locks.NewShflLock("ht")
			if err := fw.RegisterLock(l); err != nil {
				b.Fatal(err)
			}
			res := workloads.RunHashTable(l, topo, workloads.HashTableConfig{
				Workers: 4, OpsPerWorker: 3000, ReadFraction: 0.8,
			})
			tput = res.OpsPerMSec()
		}
		b.ReportMetric(tput, "ops/ms")
	}
	b.Run("bare", func(b *testing.B) { run(b) })
	b.Run("telemetry", func(b *testing.B) { run(b, concord.WithTelemetry()) })
}

// BenchmarkFaultInjectionOverhead measures the fault-injection plane's
// hot-path cost on the contended hash-table workload with a supervised
// cBPF policy attached — every acquisition crosses the policy.helper,
// policy.mapop and core.hook_panic sites. "disarmed" is the production
// configuration: each crossing is a single atomic-load nil-check, and
// the acceptance bar is <= 2% against the pre-plane baseline (compare
// with BenchmarkTelemetryOverhead/bare across commits). "armed-inert"
// arms those sites at a vanishing probability to expose the cost the
// nil-check avoids: the full draw path and its per-site mutex.
func BenchmarkFaultInjectionOverhead(b *testing.B) {
	topo := topology.Paper()
	run := func(b *testing.B, plan map[string]concord.FaultConfig) {
		defer concord.DisarmAllFaults()
		fw := concord.New(topo)
		l := locks.NewShflLock("ht")
		if err := fw.RegisterLock(l); err != nil {
			b.Fatal(err)
		}
		m := policy.NewArrayMap("m", 8, 1)
		prog := policy.NewBuilder("pol", policy.KindLockAcquired).
			StoreStackImm(policy.OpStW, -4, 0).
			LoadMapPtr(policy.R1, m).
			MovReg(policy.R2, policy.RFP).
			AddImm(policy.R2, -4).
			Call(policy.HelperMapLookup).
			ReturnImm(0).
			MustProgram()
		if _, err := fw.LoadPolicy("pol", prog); err != nil {
			b.Fatal(err)
		}
		att, err := fw.Attach("ht", "pol")
		if err != nil {
			b.Fatal(err)
		}
		att.Wait()
		if plan != nil {
			if err := (concord.FaultPlan{Seed: 1, Sites: plan}).Apply(); err != nil {
				b.Fatal(err)
			}
		}
		var tput float64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res := workloads.RunHashTable(l, topo, workloads.HashTableConfig{
				Workers: 4, OpsPerWorker: 3000, ReadFraction: 0.8,
			})
			tput = res.OpsPerMSec()
		}
		b.ReportMetric(tput, "ops/ms")
		if att.Faults() != 0 {
			b.Fatalf("inert sites fired: %d faults", att.Faults())
		}
	}
	b.Run("disarmed", func(b *testing.B) { run(b, nil) })
	b.Run("armed-inert", func(b *testing.B) {
		run(b, map[string]concord.FaultConfig{
			"policy.helper":   {Probability: 1e-12},
			"policy.mapop":    {Probability: 1e-12},
			"core.hook_panic": {Probability: 1e-12},
		})
	})
}

// BenchmarkOptReadAttached measures one validated optimistic read section
// on a lock set up the way rw_occ_gate's is: an RWSem registered with a
// framework that has a continuous profiler, occ-gate.pol attached, and the
// lock promoted by that policy (not forced on). It is the number the
// bench's locks.optread_ns probe cannot give, because that probe attaches
// nothing; DESIGN §7 decision 7 quotes it before and after.
func BenchmarkOptReadAttached(b *testing.B) {
	topo := topology.Paper()
	fw := concord.New(topo, concord.WithContinuousProfiling(concord.ContinuousProfilerConfig{
		Window: 5 * time.Millisecond,
	}))
	l := locks.NewRWSem("rw")
	if err := fw.RegisterLock(l); err != nil {
		b.Fatal(err)
	}
	src, err := os.ReadFile("policies/occ-gate.pol")
	if err != nil {
		b.Fatal(err)
	}
	unit, err := concord.CompileDSL(string(src))
	if err != nil {
		b.Fatal(err)
	}
	if _, err := fw.LoadPolicy("occ-gate", unit.Programs...); err != nil {
		b.Fatal(err)
	}
	att, err := fw.Attach("rw", "occ-gate")
	if err != nil {
		b.Fatal(err)
	}
	att.Wait()

	var data atomic.Uint64
	// Reads through the read lock until a window has sealed read-dominated
	// and the policy has promoted the lock.
	warm := concord.NewTask(topo)
	for deadline := time.Now().Add(10 * time.Second); !l.OCCStats().Promoted; {
		if time.Now().After(deadline) {
			b.Fatalf("occ-gate.pol never promoted the lock: %+v", l.OCCStats())
		}
		l.OptRead(warm, func() { _ = data.Load() })
	}
	before := l.OCCStats()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		tk := concord.NewTask(topo)
		var got uint64
		read := func() { got = data.Load() }
		for pb.Next() {
			l.OptRead(tk, read)
		}
		_ = got
	})
	b.StopTimer()
	if st := l.OCCStats(); st.Reads-before.Reads != uint64(b.N) || st.Demotions != 0 {
		b.Fatalf("%d of %d reads validated, %d demotions: not measuring the speculative path (%+v)",
			st.Reads-before.Reads, b.N, st.Demotions, st)
	}
}
