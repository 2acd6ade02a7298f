package core

import (
	"testing"

	"concord/internal/locks"
	"concord/internal/policydsl"
	"concord/internal/task"
	"concord/internal/topology"
)

// TestShippedPolicyDecisions pins what three shipped policies decide, not
// only that the interpreter and the tree agree: bounded-shuffle.pol stops
// shuffling after round 8, vcpu.pol parks a preempted waiter and keeps a
// waiter spinning for its first 5 µs, and priority.pol groups a waiter
// that outranks the shuffler or has waited more than 1 ms. Each policy is
// loaded and attached through the framework and its hook fired from the
// published table, under TierAuto and under TierForceVM.
func TestShippedPolicyDecisions(t *testing.T) {
	topo := topology.Paper()
	const now = int64(10_000_000)
	newTask := func(prio int64, preempted bool) *task.T {
		tk := task.New(topo)
		tk.SetPriority(prio)
		tk.SetPreempted(preempted)
		return tk
	}
	waiter := func(tk *task.T, waitNS int64) *locks.Waiter {
		return &locks.Waiter{Task: tk, EnqueueNS: now - waitNS}
	}
	shuffle := func(round int, curr *locks.Waiter) *locks.ShuffleInfo {
		return &locks.ShuffleInfo{
			NowNS: now, Round: round, Batch: 1,
			Shuffler: waiter(newTask(5, false), 0), Curr: curr,
		}
	}
	wait := func(preempted bool, spinNS int64) *locks.WaitInfo {
		return &locks.WaitInfo{NowNS: now, SpinNS: spinNS, Curr: waiter(newTask(5, preempted), spinNS)}
	}
	type fire func(h *locks.Hooks) int
	skip := func(round int) fire {
		return func(h *locks.Hooks) int { return int(b2u(h.SkipShuffle(shuffle(round, waiter(newTask(5, false), 0))))) }
	}
	schedule := func(preempted bool, spinNS int64) fire {
		return func(h *locks.Hooks) int { return h.ScheduleWaiter(wait(preempted, spinNS)) }
	}
	cmp := func(prio, waitNS int64) fire {
		return func(h *locks.Hooks) int { return int(b2u(h.CmpNode(shuffle(1, waiter(newTask(prio, false), waitNS))))) }
	}
	cases := []struct {
		policy, name string
		fire         fire
		want         int
	}{
		{"bounded-shuffle", "round 1", skip(1), 0},
		{"bounded-shuffle", "round 8", skip(8), 0},
		{"bounded-shuffle", "round 9", skip(9), 1},
		{"bounded-shuffle", "round 16", skip(16), 1},
		{"vcpu", "preempted", schedule(true, 100), locks.WaitParkNow},
		{"vcpu", "preempted past the spin window", schedule(true, 50_000), locks.WaitParkNow},
		{"vcpu", "spun 0", schedule(false, 0), locks.WaitKeepSpinning},
		{"vcpu", "spun 4999ns", schedule(false, 4_999), locks.WaitKeepSpinning},
		{"vcpu", "spun 5000ns", schedule(false, 5_000), locks.WaitDefault},
		{"vcpu", "spun 1ms", schedule(false, 1_000_000), locks.WaitDefault},
		{"priority", "higher priority", cmp(6, 0), 1},
		{"priority", "higher priority, long wait", cmp(9, 5_000_000), 1},
		{"priority", "same priority, waited 1ms+1ns", cmp(5, 1_000_001), 1},
		{"priority", "lower priority, waited 2ms", cmp(0, 2_000_000), 1},
		{"priority", "same priority, waited 1ms", cmp(5, 1_000_000), 0},
		{"priority", "lower priority, short wait", cmp(4, 10), 0},
		{"priority", "same priority, no wait", cmp(5, 0), 0},
	}
	srcs := shippedPolicies(t)
	for _, mode := range []TierMode{TierAuto, TierForceVM} {
		hooks := map[string]*locks.Hooks{}
		var pols []*Policy
		for _, name := range []string{"bounded-shuffle", "vcpu", "priority"} {
			f := newFramework()
			l := locks.NewShflLock("l")
			if err := f.RegisterLock(l); err != nil {
				t.Fatal(err)
			}
			unit, err := policydsl.CompileAndVerify(srcs[name])
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			pol, err := f.LoadPolicy(name, unit.Programs...)
			if err != nil {
				t.Fatal(err)
			}
			att, err := f.Attach("l", name)
			if err != nil {
				t.Fatal(err)
			}
			att.Wait()
			if mode != TierAuto {
				patch, err := f.SetTier("l", mode)
				if err != nil {
					t.Fatal(err)
				}
				patch.Wait()
			}
			hooks[name], pols = l.HookSlot().Peek(), append(pols, pol)
		}
		for _, tc := range cases {
			t.Run(mode.String()+"/"+tc.policy+"/"+tc.name, func(t *testing.T) {
				if got := tc.fire(hooks[tc.policy]); got != tc.want {
					t.Errorf("decision %d, want %d", got, tc.want)
				}
			})
		}
		// Each path ran: the tree on every fire under TierAuto, the
		// interpreter on every fire under TierForceVM.
		for _, pol := range pols {
			for kind, p := range pol.Programs {
				st := p.Stats()
				runs, jit := st.Runs.Load(), st.JITRuns.Load()
				if runs == 0 || (mode == TierAuto) != (jit == runs) || (mode == TierForceVM) != (jit == 0) {
					t.Errorf("%s/%s %s: %d runs, %d on the tree", mode, pol.Name, kind, runs, jit)
				}
			}
		}
	}
}
