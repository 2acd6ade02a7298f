package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"strings"
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

func randEvent(r *rand.Rand, topo *topology.Topology) *locks.Event {
	return &locks.Event{
		LockID: uint64(1 + r.Intn(8)), Task: randTask(r, topo), NowNS: int64(1_000_000 + r.Intn(1_000_000)),
		WaitNS: int64(r.Intn(2_000_000)), HoldNS: int64(r.Intn(100_000)), QueueLen: r.Intn(64),
		Reader: r.Intn(2) == 1,
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

// TestCtxSourcesReadTheirField holds the one definition of each context
// word, the source both tiers read, to the field its name refers to: for
// each decision layout, the profiling layout under each of its four ops,
// and every slot, the source returns the value stated below from the
// accessor the field names, over randomised tasks, infos and events (some
// without a task). A field that gains a slot in the layout without gaining
// a source (or a value here) fails by name.
func TestCtxSourcesReadTheirField(t *testing.T) {
	r := rand.New(rand.NewSource(21))
	topo := topology.BigLittle(4, 4) // two speed classes, two sockets
	b := func(v bool) uint64 {
		if v {
			return 1
		}
		return 0
	}
	// waiter states the fields of a queued task, each under prefix.
	waiter := func(want map[string]uint64, prefix string, w *locks.Waiter, now int64) {
		tk := w.Task
		want[prefix+"task_id"] = uint64(tk.ID())
		want[prefix+"cpu"] = uint64(tk.CPU())
		want[prefix+"socket"] = uint64(tk.Socket())
		want[prefix+"prio"] = uint64(tk.Priority())
		want[prefix+"weight"] = uint64(tk.Weight())
		want[prefix+"cs_avg"] = uint64(tk.CSAverage())
		want[prefix+"wait_ns"] = uint64(w.WaitNS(now))
		want[prefix+"held_mask"] = tk.HeldMask()
		want[prefix+"speed_pct"] = uint64(tk.Speed() * 100)
		want[prefix+"quota"] = uint64(tk.Quota())
		want[prefix+"preempted"] = b(tk.Preempted())
	}
	check := func(l *policy.CtxLayout, n int, word func(slot int) (uint64, bool), want map[string]uint64) {
		t.Helper()
		for slot, f := range l.Fields {
			got, ok := word(slot)
			if !ok {
				t.Fatalf("%s.%s has no live source", l.Kind, f.Name)
			}
			exp, ok := want[f.Name]
			if !ok {
				t.Fatalf("%s.%s: no expected value stated for the field", l.Kind, f.Name)
			}
			if got != exp {
				t.Errorf("%s.%s (sample %d): source reads %d, the field is %d", l.Kind, f.Name, n, got, exp)
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
		shuffle := map[string]uint64{
			"lock_id": si.LockID, "queue_len": uint64(si.QueueLen), "shuffle_round": uint64(si.Round),
			"now_ns": uint64(si.NowNS), "batch": uint64(si.Batch),
		}
		waiter(shuffle, "shuffler_", si.Shuffler, si.NowNS)
		waiter(shuffle, "curr_", si.Curr, si.NowNS)
		wait := map[string]uint64{
			"lock_id": wi.LockID, "queue_len": uint64(wi.QueueLen), "now_ns": uint64(wi.NowNS),
			"waiters_ahead": uint64(wi.WaitersAhead), "holder_cs_avg": uint64(wi.HolderCSAvg),
			"spin_ns": uint64(wi.SpinNS),
		}
		waiter(wait, "curr_", wi.Curr, wi.NowNS)

		cmp, skip, sched := wordOf(cmpSrc, si), wordOf(skipSrc, si), wordOf(schedSrc, wi)
		check(cmpL, n, cmp, shuffle)
		check(skipL, n, skip, shuffle)
		check(schedL, n, sched, wait)
		note(cmpL, cmp)
		note(skipL, skip)
		note(schedL, sched)

		ev := randEvent(r, topo)
		if n%5 == 0 {
			ev.Task = nil
		}
		event := map[string]uint64{
			"lock_id": ev.LockID, "now_ns": uint64(ev.NowNS), "wait_ns": uint64(ev.WaitNS),
			"hold_ns": uint64(ev.HoldNS), "queue_len": uint64(ev.QueueLen), "reader": b(ev.Reader),
			"task_id": 0, "cpu": 0, "socket": 0, "prio": 0, // an event without a task
		}
		if tk := ev.Task; tk != nil {
			event["task_id"], event["cpu"] = uint64(tk.ID()), uint64(tk.CPU())
			event["socket"], event["prio"] = uint64(tk.Socket()), uint64(tk.Priority())
		}
		for op := uint64(opAcquire); op <= opRelease; op++ {
			event["op"] = op
			prof := wordOf(profSrc[op], ev)
			check(profL, n, prof, event)
			note(profL, prof)
		}
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
		for k := range pol.Programs {
			if pol.Tiers[k].Tree() != nil {
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
// all ten, lock_stats_read callers (contention-gate, occ-gate) included. A
// policy dropping off this list silently falls back to the interpreter, a
// performance regression no other test would notice.
func TestShippedTreeRoster(t *testing.T) {
	var got []string
	for name := range treePolicies(t) {
		got = append(got, name)
	}
	sort.Strings(got)
	want := []string{"amp", "bounded-shuffle", "contention-gate", "inheritance", "numa", "occ-gate",
		"priority", "profile-waits", "vcpu", "wait-gate"}
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("tree-lowered shipped policies = %v, want %v", got, want)
	}
}

// fireOutcome is everything one scenario of TestTreePathMatchesVM
// observes: what the hooks decided, what the programs counted, what the
// fires left in the maps, which statistics they read and which occ_set
// requests they made, and what the supervisor made of the faults.
type fireOutcome struct {
	decisions   []int
	runs, insns int64
	helpers     int64
	progFaults  int64
	jitRuns     int64
	faults      int64
	errClass    string
	quarantined bool
	maps        string
	env         []string
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

// policyMaps returns the maps pol's programs use, each once, by name.
func policyMaps(pol *Policy) map[string]policy.Map {
	out := map[string]policy.Map{}
	for _, p := range pol.Programs {
		for _, m := range p.Maps {
			out[m.Name()] = m
		}
	}
	return out
}

// mapContents renders what pol's maps hold, sorted: every hash entry, and
// every non-zero per-CPU array word with its CPU.
func mapContents(t *testing.T, pol *Policy) string {
	var rows []string
	for name, m := range policyMaps(pol) {
		switch m := m.(type) {
		case *policy.HashMap:
			m.Range(func(k []byte, v []uint64) bool {
				rows = append(rows, fmt.Sprintf("%s[%x]=%v", name, k, v))
				return true
			})
		case *policy.PerCPUArrayMap:
			for cpu := 0; cpu < m.NumCPUs(); cpu++ {
				for i := 0; i < m.MaxEntries(); i++ {
					if v := m.Lookup([]byte{byte(i), 0, 0, 0}, cpu); v[0] != 0 {
						rows = append(rows, fmt.Sprintf("%s[%d]@cpu%d=%v", name, i, cpu, v))
					}
				}
			}
		default:
			t.Fatalf("map %s: no dump for %T", name, m)
		}
	}
	sort.Strings(rows)
	return strings.Join(rows, " ")
}

// seedWorstWait gives a worstwait map the waits of locks 1–4, two of them
// past wait-gate's 1ms; full fills it to its 512 entries besides, so that
// recording any other lock's wait fails.
func seedWorstWait(t *testing.T, pol *Policy, full bool) {
	m, ok := policyMaps(pol)["worstwait"].(*policy.HashMap)
	if !ok {
		return
	}
	for k, v := range []uint64{500_000, 2_000_000, 0, 1_500_000} {
		if err := m.Update(binary.LittleEndian.AppendUint64(nil, uint64(k+1)), []uint64{v}, 0); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1000); full && m.Len() < m.MaxEntries(); k++ {
		if err := m.Update(binary.LittleEndian.AppendUint64(nil, k), []uint64{k}, 0); err != nil {
			t.Fatal(err)
		}
	}
	if full && m.Update(binary.LittleEndian.AppendUint64(nil, 5), []uint64{1}, 0) == nil {
		t.Fatal("worstwait took a 513th key")
	}
}

// TestTreePathMatchesVM is the adapter-level half of the tree's
// equivalence contract. For every shipped policy on the tree path, the
// same seeded sequence of fires is driven through the framework's own
// hook table — decision and profiling hooks — under TierAuto (tree) and
// TierForceVM (marshal + reference interpreter), undisturbed and with each
// containment site armed: decisions, ExecStats deltas, the maps' contents
// after the fires, the lock statistics read and occ_set requests made
// through the attachment, and the supervisor's fault accounting must be
// identical — a tree run is a JIT run, contained by the same exec. The
// attachment's statistics read a seeded sequence of values on both sides
// of every shipped threshold. Two scenarios are about the maps: worstwait
// filled to its 512 entries, so that recording a new lock's wait takes
// map_update's −1 path, and events from tasks on every CPU, so that
// count's per-CPU adds land on many CPUs.
func TestTreePathMatchesVM(t *testing.T) {
	t.Cleanup(faultinject.DisarmAll)
	const fires = 64
	scenarios := []struct {
		name   string
		budget time.Duration
		arm    func()
		faults int64  // expected supervisor-counted faults: per hook fire if < 0
		needs  string // "helpers", "maps": the plan fires only in programs that call helpers, map helpers
		full   bool   // worstwait starts full
		cpus   bool   // event i comes from a task on CPU i
	}{
		{name: "undisturbed", arm: func() {}},
		{name: "hook-panic", arm: func() { faultinject.CoreHookPanic.Arm(faultinject.Config{MaxFires: 3}) }, faults: 3},
		{name: "policy-trap", arm: func() { faultinject.PolicyTrap.Arm(faultinject.Config{MaxFires: 3}) }, faults: 3},
		// a budget no healthy fire comes near, even on a busy host
		{name: "policy-latency", budget: 20 * time.Millisecond, arm: func() {
			faultinject.PolicyLatency.Arm(faultinject.Config{MaxFires: 1, Delay: 50 * time.Millisecond})
		}, faults: 1},
		{name: "budget-1ns", budget: time.Nanosecond, arm: func() {}, faults: -1},
		{name: "helper-fault", arm: func() { faultinject.PolicyHelper.Arm(faultinject.Config{MaxFires: 3}) }, faults: 3, needs: "helpers"},
		{name: "map-op-fault", arm: func() { faultinject.PolicyMapOp.Arm(faultinject.Config{MaxFires: 3}) }, faults: 3, needs: "maps"},
		{name: "worstwait-full", arm: func() {}, full: true},
		{name: "several-cpus", arm: func() {}, cpus: true},
	}
	type run struct {
		out     fireOutcome
		hooks   int // hooks called per fire
		helpers bool
		maps    bool
	}
	fire := func(t *testing.T, name, src string, mode TierMode, budget time.Duration, arm func(), full, cpus bool) run {
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
		seedWorstWait(t, pol, full)
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
		profiling := []func(*locks.Event){h.OnAcquire, h.OnContended, h.OnAcquired, h.OnRelease}

		var rn run
		out := &rn.out
		f.mu.Lock()
		ad := f.locks["l"].sup.ad
		f.mu.Unlock()
		stats := rand.New(rand.NewSource(9))
		values := []uint64{0, 100, 250, 500, 760, 880, 999_999, 2_000_000}
		ad.setLockStats(func(field uint64) uint64 {
			v := values[stats.Intn(len(values))]
			out.env = append(out.env, fmt.Sprintf("stat%d=%d", field, v))
			return v
		})
		ad.setOCCSet(func(on uint64) uint64 {
			out.env = append(out.env, fmt.Sprintf("occ%d", on))
			return 0
		})

		arm()
		defer faultinject.DisarmAll()
		r := rand.New(rand.NewSource(5))
		topo := f.Topology()
		for i := 0; i < fires; i++ {
			si, wi, ev := randShuffleInfo(r, topo), randWaitInfo(r, topo), randEvent(r, topo)
			if cpus {
				ev.Task.Migrate(i % topo.NumCPUs())
			}
			rn.hooks = 0
			if h.CmpNode != nil {
				out.decisions = append(out.decisions, int(b2u(h.CmpNode(si))))
				rn.hooks++
			}
			if h.SkipShuffle != nil {
				out.decisions = append(out.decisions, int(b2u(h.SkipShuffle(si))))
				rn.hooks++
			}
			if h.ScheduleWaiter != nil {
				out.decisions = append(out.decisions, h.ScheduleWaiter(wi))
				rn.hooks++
			}
			for _, hook := range profiling {
				if hook != nil {
					hook(ev)
					rn.hooks++
				}
			}
		}
		for _, p := range pol.Programs {
			st := p.Stats()
			out.runs += st.Runs.Load()
			out.insns += st.Insns.Load()
			out.helpers += st.HelperCalls.Load() + st.MapOps.Load()
			out.progFaults += st.Faults.Load()
			out.jitRuns += st.JITRuns.Load()
			rn.maps = rn.maps || len(p.Maps) > 0
			for _, in := range p.Insns {
				rn.helpers = rn.helpers || in.Op == policy.OpCall
			}
		}
		if att.Faults() > 0 {
			for deadline := time.Now().Add(10 * time.Second); !att.Quarantined(); time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatal("faulted policy was never quarantined")
				}
			}
		}
		out.faults, out.errClass, out.quarantined = att.Faults(), errClass(att.Err()), att.Quarantined()
		out.maps = mapContents(t, pol)
		if full {
			if m, ok := policyMaps(pol)["worstwait"].(*policy.HashMap); ok && m.Len() != m.MaxEntries() {
				t.Errorf("worstwait holds %d keys after the fires, want %d", m.Len(), m.MaxEntries())
			}
		}
		if cpus {
			if m, ok := policyMaps(pol)["contended"].(*policy.PerCPUArrayMap); ok {
				counted := 0
				for cpu := 0; cpu < m.NumCPUs(); cpu++ {
					if m.Lookup([]byte{0, 0, 0, 0}, cpu)[0] != 0 {
						counted++
					}
				}
				if counted < 2 {
					t.Errorf("contended counted on %d CPUs, want several", counted)
				}
			}
		}
		return rn
	}
	for name, src := range treePolicies(t) {
		for _, sc := range scenarios {
			t.Run(name+"/"+sc.name, func(t *testing.T) {
				vm := fire(t, name, src, TierForceVM, sc.budget, sc.arm, sc.full, sc.cpus)
				tree := fire(t, name, src, TierAuto, sc.budget, sc.arm, sc.full, sc.cpus)
				if vm.out.jitRuns != 0 || tree.out.jitRuns != tree.out.runs {
					t.Errorf("jit runs: vm %d of %d, tree %d of %d; want none and all",
						vm.out.jitRuns, vm.out.runs, tree.out.jitRuns, tree.out.runs)
				}
				vm.out.jitRuns, tree.out.jitRuns = 0, 0
				if fmt.Sprintf("%+v", vm.out) != fmt.Sprintf("%+v", tree.out) {
					t.Errorf("paths disagree:\n  vm   %+v\n  tree %+v", vm.out, tree.out)
				}
				if strings.Contains(src, "lock_stats_read") && len(tree.out.env) == 0 {
					t.Error("the policy read no lock statistic")
				}
				want := sc.faults
				switch {
				case want < 0:
					want = int64(fires * tree.hooks)
				case sc.needs == "helpers" && !tree.helpers, sc.needs == "maps" && !tree.maps:
					want = 0
				}
				if tree.out.faults != want {
					t.Errorf("supervisor counted %d faults, want %d", tree.out.faults, want)
				}
				if tree.out.runs == 0 || tree.hooks == 0 || len(tree.out.decisions) > fires*tree.hooks {
					t.Errorf("%d runs, %d decisions for %d fires of %d hooks", tree.out.runs, len(tree.out.decisions), fires, tree.hooks)
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
			if tree := pol.Tiers[policy.KindScheduleWaiter].Tree(); tree == nil {
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
