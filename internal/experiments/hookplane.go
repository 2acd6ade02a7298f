package experiments

import (
	"fmt"
	"runtime"
	"time"

	"concord/internal/core"
	"concord/internal/locks"
	"concord/internal/policy"
	"concord/internal/policy/jit"
	"concord/internal/task"
	"concord/internal/topology"
)

// This file is the wall-clock microbenchmark of the hook dispatch
// plane: the profiled-shuffler cmp_node policy (a map_add and a socket
// compare on every fire) measured end to end — through the hook closure
// the framework builds at Attach — on the policy runtime's two tiers. The
// "jit" column is the decision tree (jit.LowerTree; the map_add is an
// effect node), so the fire reads its two context words where they live,
// with no context fill and no machine; the "vm" column fills a context and
// interprets. The ksim figures run in virtual time, so policy execution
// cost is invisible there by construction; the hook plane is where the
// tree's speedup (and its zero-allocation contract) is actually measured:
// TestHookPlaneJITRuns, TestHookPlaneJITZeroAllocs and, with -tags
// perfgate, TestHookPlaneJITSpeedup.

// execClosure returns the fastest available executor for a verified
// program: its decision tree over a context (jit.Compile) when the program
// lowers, else the interpreter.
func execClosure(prog *policy.Program) policy.CompiledFn {
	if fn, err := jit.Compile(prog); err == nil {
		return fn
	}
	return func(ctx *policy.Ctx, env policy.Env) (uint64, error) {
		return policy.Exec(prog, ctx, env)
	}
}

// HookFire is one hook-plane operation: the framework-built cmp_node
// hook fired for a shuffler and a candidate on the given sockets — the
// adapter's context fill, containment and program execution, exactly
// what a ShflLock pays per shuffler examination.
type HookFire func(shufflerSocket, currSocket uint64) bool

// HookPlaneFire builds the measured hook closure for one tier the way a
// user gets one: the profiled-shuffler policy is loaded into a framework,
// attached to a ShflLock, and the closure is the CmpNode member of the
// hook table the lock publishes. "vm" forces the interpreter, "jit" runs
// the tier admission chose, the JIT tier (here, the decision tree). Each
// call builds a fresh framework, program and map arena so fires don't
// share profiling state. HookFires are single-threaded.
func HookPlaneFire(tier string) HookFire {
	fire, _ := hookPlane(tier)
	return fire
}

// hookPlane is HookPlaneFire, also returning the framework's copy of the
// loaded program, which is what fires and whose ExecStats count the fires.
func hookPlane(tier string) (HookFire, *policy.Program) {
	topo := topology.Paper()
	fw := core.New(topo)
	l := locks.NewShflLock("hookbench")
	prog := ProfiledNumaCmpProgram(policy.NewHashMap("hookbench-exams", 8, 8, 16))
	mode := core.TierForceVM
	if tier == "jit" {
		mode = core.TierAuto
	}
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprintf("experiments: hook plane setup: %v", err))
		}
	}
	must(fw.RegisterLock(l))
	pol, err := fw.LoadPolicy("numa-prof", prog)
	must(err)
	att, err := fw.Attach(l.Name(), "numa-prof")
	must(err)
	att.Wait()
	patch, err := fw.SetTier(l.Name(), mode)
	must(err)
	patch.Wait()
	cmp := l.HookSlot().Peek().CmpNode

	// One task per socket; a fire points the two waiters at the tasks on
	// the requested sockets.
	onSocket := make([]*task.T, topo.NumSockets())
	for s := range onSocket {
		onSocket[s] = task.NewOnCPU(topo, s*topo.CoresPerSocket())
	}
	var shuffler, curr locks.Waiter
	info := locks.ShuffleInfo{LockID: l.ID(), QueueLen: 4, Round: 1, Batch: 1,
		Shuffler: &shuffler, Curr: &curr}
	return func(shufflerSocket, currSocket uint64) bool {
		shuffler.Task = onSocket[shufflerSocket%uint64(len(onSocket))]
		curr.Task = onSocket[currSocket%uint64(len(onSocket))]
		return cmp(&info)
	}, pol.Programs[policy.KindCmpNode]
}

// HookPlaneOpsPerMSec times ops hook fires and returns throughput.
// Sockets rotate through a small set so both branch outcomes and a few
// map keys stay in play.
func HookPlaneOpsPerMSec(fire HookFire, ops int) float64 {
	start := time.Now()
	for i := 0; i < ops; i++ {
		fire(uint64(i&3), uint64(i&7))
	}
	elapsed := time.Since(start)
	if elapsed <= 0 {
		return 0
	}
	return float64(ops) / (float64(elapsed.Nanoseconds()) / 1e6)
}

// HookPlaneAllocsPerOp brackets a run of hook fires with mallocs
// counters. The JIT tier's contract is 0.00 here — one heap allocation
// per fire would dominate the win at hook frequencies.
func HookPlaneAllocsPerOp(fire HookFire, ops int) float64 {
	// Collect first, so that garbage left by whatever ran before does not
	// start a collection inside the measured fires: one would empty the
	// interpreter's stack pool and count its refill. Then warm the pool
	// and the map arena (first map_add per key allocates the entry).
	runtime.GC()
	for i := 0; i < 64; i++ {
		fire(uint64(i&3), uint64(i&7))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < ops; i++ {
		fire(uint64(i&3), uint64(i&7))
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(ops)
}
