package schedfuzz

import (
	"sync"

	"concord/internal/core"
	"concord/internal/faultinject"
	"concord/internal/locks"
	"concord/internal/policy"
	"concord/internal/workloads"
)

func init() { RegisterTarget(jitChurnTarget{}) }

// jitChurnTarget runs JIT-tier policies under schedule perturbation and
// live tier churn: a blocking ShflLock carries a two-program policy
// (the profiled NUMA cmp_node shape plus a per-lock acquire counter,
// both map-heavy so the JIT's UpdateRaw/lookup fast paths stay hot)
// while the hashtable workload hammers it under forced parks, park
// delays and dropped wakeups from the fault plan. Concurrently the
// fuzzer flips the attachment between auto and forced-VM via SetTier,
// so livepatch tier transitions drain under live hook traffic.
// Invariants: exact op conservation, a clean lock safety state, zero
// policy faults (no error sites are armed), and hook runs actually
// recorded on the policy.
type jitChurnTarget struct{}

func (jitChurnTarget) Name() string { return "jit-churn" }
func (jitChurnTarget) Params() map[string]int64 {
	return map[string]int64{"workers": 4, "ops": 250, "flips": 8, "read_pm": 700}
}

// jitChurnPolicy builds the target's two verified programs against a
// shared map set: the profiled-shuffler cmp_node policy and an acquire
// profiler bumping a per-lock counter on every lock operation (so the
// policy runs a deterministic minimum number of times regardless of
// how much shuffling the schedule produces).
func jitChurnPolicy() []*policy.Program {
	exams := policy.NewHashMap("jit_churn_exams", 8, 8, 64)
	acqs := policy.NewHashMap("jit_churn_acqs", 8, 8, 64)
	cmp := policy.MustAssemble("jit-churn-cmp", policy.KindCmpNode, `
		mov   r6, r1
		ldxdw r2, [r6+curr_socket]
		stxdw [fp-8], r2
		ldmap r1, exams
		mov   r2, fp
		add   r2, -8
		mov   r3, 1
		call  map_add
		ldxdw r2, [r6+curr_socket]
		ldxdw r3, [r6+shuffler_socket]
		jeq   r2, r3, group
		mov   r0, 0
		exit
	group:
		mov   r0, 1
		exit
	`, map[string]policy.Map{"exams": exams})
	acq := policy.MustAssemble("jit-churn-acq", policy.KindLockAcquire, `
		ldxdw r2, [r1+lock_id]
		stxdw [fp-8], r2
		ldmap r1, acqs
		mov   r2, fp
		add   r2, -8
		mov   r3, 1
		call  map_add
		mov   r0, 0
		exit
	`, map[string]policy.Map{"acqs": acqs})
	return []*policy.Program{cmp, acq}
}

func (jitChurnTarget) Run(env *Env, params map[string]int64) error {
	fw := core.New(env.Topo)
	l := locks.NewShflLock("schedfuzz_jit",
		locks.WithMaxRounds(64), locks.WithBlocking(true), locks.WithSpinBudget(32))
	if err := fw.RegisterLock(l); err != nil {
		return err
	}
	progs := jitChurnPolicy()
	pol, err := fw.LoadPolicy("jit-churn", progs...)
	if err != nil {
		return err
	}
	// The whole point is the JIT tier: both programs must be admitted
	// to it, or the target is silently fuzzing the interpreter.
	for _, p := range progs {
		if tier := pol.Tier(p.Kind); tier != "jit" {
			return Invariantf("program %q admitted as %q, want jit", p.Name, tier)
		}
	}
	att, err := fw.Attach("schedfuzz_jit", "jit-churn")
	if err != nil {
		return err
	}
	att.Wait()
	defer fw.Detach("schedfuzz_jit")

	sites, err := ArmFaultPlan(env.F, nil)
	if err != nil {
		return err
	}
	env.RecordPlan(sites)
	defer faultinject.DisarmAll()

	workers := int(param(params, "workers", 4))
	ops := int(param(params, "ops", 250))
	var (
		wg  sync.WaitGroup
		res workloads.Result
	)
	wg.Add(1)
	go func() {
		defer wg.Done()
		res = workloads.RunHashTable(l, env.Topo, workloads.HashTableConfig{
			Workers:      workers,
			OpsPerWorker: ops,
			ReadFraction: float64(param(params, "read_pm", 700)) / 1000,
		})
	}()

	// Tier churn under live traffic: every flip is a livepatch
	// transition that must drain against in-flight hook fires. Only
	// this goroutine consults the fuzzer, so the schedule log stays
	// byte-identical for a given seed.
	modes := []core.TierMode{core.TierAuto, core.TierForceVM}
	flips := param(params, "flips", 8)
	for i := int64(0); i < flips; i++ {
		env.F.Point("jit.flip")
		mode := modes[env.F.Choose("jit.tier", len(modes))]
		patch, err := fw.SetTier("schedfuzz_jit", mode)
		if err != nil {
			wg.Wait()
			return err
		}
		patch.Wait()
	}
	wg.Wait()

	if want := int64(workers) * int64(ops); res.Ops != want {
		return Invariantf("jit-churn lost ops: %d != %d", res.Ops, want)
	}
	if msg := l.SafetyError(); msg != "" {
		return Invariantf("jit-churn safety trip: %s", msg)
	}
	// The framework runs its own copies of the programs, so their counts
	// are on pol.Programs.
	for _, p := range pol.Programs {
		st := p.Stats()
		if f := st.Faults.Load(); f != 0 {
			return Invariantf("program %q faulted %d times with no error sites armed", p.Name, f)
		}
	}
	// The acquire profiler fires on every lock operation; with ops > 0
	// it must have run, and its map must carry the lock's counter.
	if runs := pol.Programs[policy.KindLockAcquire].Stats().Runs.Load(); runs == 0 {
		return Invariantf("acquire program never ran under %d lock ops", res.Ops)
	}
	return nil
}
