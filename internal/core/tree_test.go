package core

import (
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"concord/internal/faultinject"
	"concord/internal/locks"
	"concord/internal/policy"
	"concord/internal/policydsl"
	"concord/internal/task"
	"concord/internal/topology"
)

// randTask is a task with every field a decision context can read set to
// something a default task does not have.
func randTask(r *rand.Rand, topo *topology.Topology) *task.T {
	t := task.NewOnCPU(topo, r.Intn(topo.NumCPUs()))
	t.SetPriority(int64(r.Intn(41) - 20))
	t.SetWeight(int64(1 + r.Intn(1024)))
	t.SetQuota(int64(r.Intn(1 << 20)))
	t.SetPreempted(r.Intn(2) == 1)
	for i := r.Intn(3); i > 0; i-- {
		t.NoteAcquired(uint64(r.Intn(task.MaxTrackedLockID + 1))) // held_mask
	}
	if r.Intn(4) > 0 {
		t.EnterCS(1)
		t.ExitCS(1 + int64(1+r.Intn(5000))) // cs_avg
	}
	return t
}

func randShuffleInfo(r *rand.Rand, topo *topology.Topology) *locks.ShuffleInfo {
	now := int64(1_000_000 + r.Intn(1_000_000))
	return &locks.ShuffleInfo{
		LockID: uint64(1 + r.Intn(100)), NowNS: now, QueueLen: r.Intn(64),
		Round: 1 + r.Intn(16), Batch: 1 + r.Intn(32),
		Shuffler: &locks.Waiter{Task: randTask(r, topo), EnqueueNS: now - int64(r.Intn(2_000_000))},
		Curr:     &locks.Waiter{Task: randTask(r, topo), EnqueueNS: now - int64(r.Intn(2_000_000))},
	}
}

func randWaitInfo(r *rand.Rand, topo *topology.Topology) *locks.WaitInfo {
	now := int64(1_000_000 + r.Intn(1_000_000))
	return &locks.WaitInfo{
		LockID: uint64(1 + r.Intn(100)), NowNS: now, QueueLen: r.Intn(64),
		WaitersAhead: r.Intn(64), SpinNS: int64(r.Intn(10_000)), HolderCSAvg: int64(r.Intn(10_000)),
		Curr: &locks.Waiter{Task: randTask(r, topo), EnqueueNS: now - int64(r.Intn(2_000_000))},
	}
}

// wordOf reads slots through a layout's sources, as a tree's loads do.
func wordOf[T any](src []func(T) uint64, arg T) func(slot int) (uint64, bool) {
	return func(slot int) (uint64, bool) {
		if src[slot] == nil {
			return 0, false
		}
		return src[slot](arg), true
	}
}

// TestCtxSourcesMatchFill holds the two definitions of a context word
// together: for each decision layout and every slot, the live source a
// decision tree reads is the word the eager fill stores for the general
// path, over randomised tasks and infos. A field that gains a slot in the
// layout without gaining a source (or a fill) fails here by name.
func TestCtxSourcesMatchFill(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	topo := topology.BigLittle(4, 4) // two speed classes, two sockets
	check := func(l *policy.CtxLayout, n int, word func(slot int) (uint64, bool), fill func(w []uint64)) {
		t.Helper()
		w := make([]uint64, len(l.Fields))
		fill(w)
		for slot, f := range l.Fields {
			got, ok := word(slot)
			if !ok {
				t.Fatalf("%s.%s has no live source", l.Kind, f.Name)
			}
			if got != w[slot] {
				t.Errorf("%s.%s (sample %d): source reads %d, fill stores %d", l.Kind, f.Name, n, got, w[slot])
			}
		}
	}
	varied := map[string]map[uint64]bool{}
	note := func(l *policy.CtxLayout, src func(slot int) (uint64, bool)) {
		for slot, f := range l.Fields {
			name := l.Kind.String() + "." + f.Name
			if varied[name] == nil {
				varied[name] = map[uint64]bool{}
			}
			v, _ := src(slot)
			varied[name][v] = true
		}
	}
	for n := 0; n < 200; n++ {
		si, wi := randShuffleInfo(r, topo), randWaitInfo(r, topo)
		cmp, skip, sched := wordOf(cmpSrc, si), wordOf(skipSrc, si), wordOf(schedSrc, wi)
		check(cmpL, n, cmp, func(w []uint64) { fillCmp(w, si) })
		check(skipL, n, skip, func(w []uint64) { fillSkip(w, si) })
		check(schedL, n, sched, func(w []uint64) { fillSched(w, wi) })
		note(cmpL, cmp)
		note(skipL, skip)
		note(schedL, sched)
	}
	// The comparison means something only if the samples move every word.
	for name, vals := range varied {
		if len(vals) < 2 {
			t.Errorf("%s read the same value in all 200 samples: the randomised inputs do not cover it", name)
		}
	}
}

// treePolicies returns the shipped policies every program of which the
// JIT tier lowers to a decision tree, with their sources.
func treePolicies(t *testing.T) map[string]string {
	t.Helper()
	out := map[string]string{}
	for name, src := range shippedPolicies(t) {
		unit, err := policydsl.CompileAndVerify(src)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := newFramework().LoadPolicy(name, unit.Programs...)
		if err != nil {
			t.Fatal(err)
		}
		trees := 0
		for k, p := range pol.Programs {
			if pol.Tiers[k].TreeFor(p) != nil {
				trees++
			}
		}
		if trees == len(pol.Programs) {
			out[name] = src
		}
	}
	return out
}

// TestShippedTreeRoster pins which shipped policies take the tree path:
// the six helper-free ones. A policy dropping off this list silently is a
// performance regression no other test would notice.
func TestShippedTreeRoster(t *testing.T) {
	var got []string
	for name := range treePolicies(t) {
		got = append(got, name)
	}
	sort.Strings(got)
	want := []string{"amp", "bounded-shuffle", "inheritance", "numa", "priority", "vcpu"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("tree-lowered shipped policies = %v, want %v", got, want)
	}
}

// fireOutcome is everything one scenario of TestTreePathMatchesVM
// observes: what the hooks decided, what the programs counted, and what
// the supervisor made of the faults.
type fireOutcome struct {
	decisions   []int
	runs, insns int64
	helpers     int64
	progFaults  int64
	jitRuns     int64
	faults      int64
	errClass    string
	quarantined bool
}

// errClass reduces a trip error to what must agree between tiers: the
// full text, except for a watchdog trip, whose text carries the measured
// time.
func errClass(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, ErrHookLatency):
		return "latency"
	}
	return err.Error()
}

// TestTreePathMatchesVM is the adapter-level half of the tree's
// equivalence contract. For every shipped policy on the tree path, the
// same seeded sequence of fires is driven through the framework's own
// hook table under TierAuto (tree) and TierForceVM (marshal + reference
// interpreter), undisturbed and with each containment site armed:
// decisions, ExecStats deltas and the supervisor's fault accounting must
// be identical — a tree run is a JIT run, contained by the same exec.
func TestTreePathMatchesVM(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	const fires = 64
	scenarios := []struct {
		name   string
		budget time.Duration
		arm    func()
		faults int64 // expected supervisor-counted faults
	}{
		{"undisturbed", 0, func() {}, 0},
		{"hook-panic", 0, func() { faultinject.CoreHookPanic.Arm(faultinject.Config{MaxFires: 3}) }, 3},
		{"policy-trap", 0, func() { faultinject.PolicyTrap.Arm(faultinject.Config{MaxFires: 3}) }, 3},
		// a budget no healthy fire comes near, even on a busy host
		{"policy-latency", 20 * time.Millisecond, func() {
			faultinject.PolicyLatency.Arm(faultinject.Config{MaxFires: 1, Delay: 50 * time.Millisecond})
		}, 1},
		{"budget-1ns", time.Nanosecond, func() {}, fires},
	}
	run := func(t *testing.T, name, src string, mode TierMode, budget time.Duration, arm func()) fireOutcome {
		f := newFramework()
		f.SetSupervisorConfig(SupervisorConfig{MaxRetries: 0, LatencyBudget: budget})
		l := locks.NewShflLock("l")
		if err := f.RegisterLock(l); err != nil {
			t.Fatal(err)
		}
		unit, err := policydsl.CompileAndVerify(src)
		if err != nil {
			t.Fatal(err)
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
		// The table is captured before anything faults: the first fault
		// makes the supervisor detach it from the lock, and the fires below
		// go on calling it, so every later fault is still counted.
		h := l.HookSlot().Peek()
		if h == nil {
			t.Fatal("no hook table published")
		}

		arm()
		defer faultinject.DisarmAll()
		var out fireOutcome
		r := rand.New(rand.NewSource(5))
		for i := 0; i < fires; i++ {
			si, wi := randShuffleInfo(r, f.Topology()), randWaitInfo(r, f.Topology())
			if h.CmpNode != nil {
				out.decisions = append(out.decisions, int(b2u(h.CmpNode(si))))
			}
			if h.SkipShuffle != nil {
				out.decisions = append(out.decisions, int(b2u(h.SkipShuffle(si))))
			}
			if h.ScheduleWaiter != nil {
				out.decisions = append(out.decisions, h.ScheduleWaiter(wi))
			}
		}
		for _, p := range pol.Programs {
			st := p.Stats()
			out.runs += st.Runs.Load()
			out.insns += st.Insns.Load()
			out.helpers += st.HelperCalls.Load() + st.MapOps.Load()
			out.progFaults += st.Faults.Load()
			out.jitRuns += st.JITRuns.Load()
		}
		if att.Faults() > 0 {
			for deadline := time.Now().Add(10 * time.Second); !att.Quarantined(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("faulted policy was never quarantined")
				}
			}
		}
		out.faults, out.errClass, out.quarantined = att.Faults(), errClass(att.Err()), att.Quarantined()
		return out
	}
	for name, src := range treePolicies(t) {
		for _, sc := range scenarios {
			t.Run(name+"/"+sc.name, func(t *testing.T) {
				vm := run(t, name, src, TierForceVM, sc.budget, sc.arm)
				tree := run(t, name, src, TierAuto, sc.budget, sc.arm)
				if vm.jitRuns != 0 || tree.jitRuns != tree.runs {
					t.Errorf("jit runs: vm %d of %d, tree %d of %d; want none and all", vm.jitRuns, vm.runs, tree.jitRuns, tree.runs)
				}
				vm.jitRuns, tree.jitRuns = 0, 0
				if fmt.Sprintf("%+v", vm) != fmt.Sprintf("%+v", tree) {
					t.Errorf("paths disagree:\n  vm   %+v\n  tree %+v", vm, tree)
				}
				if tree.faults != sc.faults {
					t.Errorf("supervisor counted %d faults, want %d", tree.faults, sc.faults)
				}
				if tree.runs == 0 || len(tree.decisions) != fires {
					t.Errorf("%d runs, %d decisions for %d fires", tree.runs, len(tree.decisions), fires)
				}
			})
		}
	}
}

// queueBehind parks n tasks behind a holder of l, one at a time so that
// queue order is creation order, and returns the holder's release and a
// wait for every task to have taken and released the lock. inCS runs in
// each task's critical section with its acquisition index.
func queueBehind(t *testing.T, l *locks.ShflLock, holder *task.T, tasks []*task.T, inCS func(idx int, tk *task.T)) (release func(), wait func()) {
	t.Helper()
	l.Lock(holder)
	var wg sync.WaitGroup
	var mu sync.Mutex
	order := 0
	for i, tk := range tasks {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l.Lock(tk)
			mu.Lock()
			idx := order
			order++
			mu.Unlock()
			if inCS != nil {
				inCS(idx, tk)
			}
			l.Unlock(tk)
		}()
		for l.QueueLen() != i+1 {
			runtime.Gosched()
		}
	}
	return func() { l.Unlock(holder) }, wg.Wait
}

// TestWaitersAheadFIFO: ctx.waiters_ahead is fed. With n tasks queued in
// FIFO order behind a holder, the k-th of them reads k−1 — through a
// schedule_waiter program, on the tree path and on the VM. The program
// compares the word with the waiter's priority (set to the expected
// value) and answers keep-spinning on a match, park-now otherwise; the
// lock does not park (non-blocking), so the answer is only observed.
func TestWaitersAheadFIFO(t *testing.T) {
	const src = `
policy schedule_waiter ahead {
    if (ctx.waiters_ahead == ctx.curr_prio) { return 1; }
    return 2;
}`
	for _, mode := range []TierMode{TierAuto, TierForceVM} {
		t.Run(mode.String(), func(t *testing.T) {
			f := newFramework()
			l := locks.NewShflLock("l")
			unit, err := policydsl.CompileAndVerify(src)
			if err != nil {
				t.Fatal(err)
			}
			pol, err := f.LoadPolicy("ahead", unit.Programs...)
			if err != nil {
				t.Fatal(err)
			}
			p := pol.Programs[policy.KindScheduleWaiter]
			if tree := pol.Tiers[policy.KindScheduleWaiter].TreeFor(p); tree == nil {
				t.Fatalf("test program is not on the tree path: %s", pol.Tiers[policy.KindScheduleWaiter].Lowering())
			}
			h := (&adapter{policyName: "ahead"}).hooks(pol, mode)

			// Every answer, by task: what the lock fed and what the
			// program made of it.
			type seen struct{ ahead, decision int }
			var mu sync.Mutex
			byTask := map[*task.T][]seen{}
			program := h.ScheduleWaiter
			h.ScheduleWaiter = func(info *locks.WaitInfo) int {
				d := program(info)
				mu.Lock()
				byTask[info.Curr.Task] = append(byTask[info.Curr.Task], seen{info.WaitersAhead, d})
				mu.Unlock()
				return d
			}
			l.HookSlot().Replace("test", h).Wait()

			const n = 6
			tasks := make([]*task.T, n)
			for k := range tasks {
				tasks[k] = task.New(f.Topology())
				tasks[k].SetPriority(int64(k)) // the k+1-th waiter expects k ahead
			}
			release, wait := queueBehind(t, l, task.New(f.Topology()), tasks, nil)
			// Hold until every waiter but the head (which competes for the
			// lock word and is never asked) has been asked at least once.
			for deadline := time.Now().Add(10 * time.Second); ; runtime.Gosched() {
				mu.Lock()
				asked := len(byTask)
				mu.Unlock()
				if asked == n-1 {
					break
				}
				if time.Now().After(deadline) {
					t.Fatalf("only %d of %d waiters consulted schedule_waiter", asked, n-1)
				}
			}
			mu.Lock()
			for k, tk := range tasks {
				for _, s := range byTask[tk] {
					if s.ahead != k || s.decision != locks.WaitKeepSpinning {
						t.Errorf("waiter %d of %d read waiters_ahead=%d (program answered %d), want %d (and %d)",
							k+1, n, s.ahead, s.decision, k, locks.WaitKeepSpinning)
						break
					}
				}
			}
			mu.Unlock()
			release()
			wait()
			// As grants go by the estimate only falls, and never below 0.
			for k, tk := range tasks {
				prev := k
				for _, s := range byTask[tk] {
					if s.ahead > prev || s.ahead < 0 {
						t.Errorf("waiter %d: waiters_ahead went %d -> %d", k+1, prev, s.ahead)
						break
					}
					prev = s.ahead
				}
			}
			if st := p.Stats(); st.Faults.Load() != 0 || st.Runs.Load() == 0 {
				t.Errorf("program ran %d times with %d faults", st.Runs.Load(), st.Faults.Load())
			}
		})
	}
}

// TestShuffleDecisionsMatchGeneralPath: same decisions, cheaper. Eight
// tasks on seeded sockets queue behind a holder; numa.pol is then
// installed and every queue head runs all its shuffling rounds over a
// queue nobody else is changing (each critical section waits for the next
// head to finish its rounds), so the run is a function of the seed. On
// the tree path and on the general path (marshal + VM) the lock must
// report the same rounds and moves and grant itself in the same order.
func TestShuffleDecisionsMatchGeneralPath(t *testing.T) {
	const n, rounds = 8, 16
	src := shippedPolicies(t)["numa"]
	run := func(t *testing.T, mode TierMode) (order []int, nRounds, nMoves int64) {
		f := newFramework()
		l := locks.NewShflLock("l", locks.WithMaxRounds(rounds))
		unit, err := policydsl.CompileAndVerify(src)
		if err != nil {
			t.Fatal(err)
		}
		pol, err := f.LoadPolicy("numa", unit.Programs...)
		if err != nil {
			t.Fatal(err)
		}
		r := rand.New(rand.NewSource(8))
		topo := f.Topology()
		tasks := make([]*task.T, n)
		pos := map[*task.T]int{}
		for i := range tasks {
			socket := r.Intn(3)
			tasks[i] = task.NewOnCPU(topo, socket*topo.CoresPerSocket())
			pos[tasks[i]] = i
		}
		order = make([]int, n)
		release, wait := queueBehind(t, l, task.New(topo), tasks, func(idx int, tk *task.T) {
			order[idx] = pos[tk]
			// The next head is shuffling: let it finish its rounds before
			// the lock is released under it. The last task has no successor.
			for want := int64(rounds * (idx + 2)); idx < n-1; runtime.Gosched() {
				if got, _, _ := l.ShuffleStats(); got >= want {
					break
				}
			}
		})
		l.HookSlot().Replace("test", (&adapter{policyName: "numa"}).hooks(pol, mode)).Wait()
		for got, _, _ := l.ShuffleStats(); got < rounds; got, _, _ = l.ShuffleStats() {
			runtime.Gosched()
		}
		release()
		wait()
		nRounds, nMoves, _ = l.ShuffleStats()
		p := pol.Programs[policy.KindCmpNode]
		if jit := p.Stats().JITRuns.Load(); (mode == TierAuto) != (jit > 0) || p.Stats().Faults.Load() != 0 {
			t.Errorf("%s: %d runs, %d on the JIT tier, %d faults", mode, p.Stats().Runs.Load(), jit, p.Stats().Faults.Load())
		}
		return order, nRounds, nMoves
	}
	treeOrder, treeRounds, treeMoves := run(t, TierAuto)
	vmOrder, vmRounds, vmMoves := run(t, TierForceVM)
	if treeRounds != vmRounds || treeMoves != vmMoves {
		t.Errorf("ShuffleStats: tree path %d rounds / %d moves, general path %d / %d",
			treeRounds, treeMoves, vmRounds, vmMoves)
	}
	if fmt.Sprint(treeOrder) != fmt.Sprint(vmOrder) {
		t.Errorf("grant order: tree path %v, general path %v", treeOrder, vmOrder)
	}
	if treeMoves == 0 || treeRounds != n*rounds {
		t.Errorf("%d rounds, %d moves: the seeded queue was meant to give every head %d rounds and some moves",
			treeRounds, treeMoves, rounds)
	}
	t.Logf("%d rounds, %d moves, grant order %v on both paths", treeRounds, treeMoves, treeOrder)
}
