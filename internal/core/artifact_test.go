package core

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"

	"concord/internal/locks"
	"concord/internal/policy"
	"concord/internal/policy/jit"
	"concord/internal/policydsl"
	"concord/internal/task"
)

// loadSrc compiles src afresh — new program and map objects, as every
// load from source gets — and loads it under name.
func loadSrc(t *testing.T, f *Framework, name, src string) *Policy {
	t.Helper()
	unit, err := policydsl.CompileAndVerify(src)
	if err != nil {
		t.Fatal(err)
	}
	p, err := f.LoadPolicy(name, unit.Programs...)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestArtifactSharedAcrossLoads: the same bytes loaded under two policy
// names cost one analysis and one lowering. Both policies hold the same
// report and the same tree, a map-carrying program's included, and each
// runs it over its own maps: firing one policy's attachment writes its
// maps and leaves the other's as they were.
func TestArtifactSharedAcrossLoads(t *testing.T) {
	srcs := shippedPolicies(t)
	for _, file := range []string{"numa", "contention-gate", "profile-waits", "wait-gate"} {
		t.Run(file, func(t *testing.T) {
			f := newFramework()
			a := loadSrc(t, f, "a", srcs[file])
			b := loadSrc(t, f, "b", srcs[file])
			if len(f.artifacts) != len(a.Programs) {
				t.Fatalf("%d artifacts for %d programs loaded twice", len(f.artifacts), len(a.Programs))
			}
			for k, pa := range a.Programs {
				pb := b.Programs[k]
				if pa == pb {
					t.Fatal("test needs two program objects")
				}
				if a.Analysis[k] != b.Analysis[k] {
					t.Errorf("%s: two reports for the same bytes", k)
				}
				ca, cb := a.Tiers[k], b.Tiers[k]
				if ca.Tier != jit.TierJIT || cb.Tier != jit.TierJIT {
					t.Fatalf("%s: admitted on %s/%s, test needs the JIT tier", k, ca.Tier, cb.Tier)
				}
				if ca.Tree() == nil || ca.Tree() != cb.Tree() {
					t.Errorf("%s: trees %p and %p for the same bytes (program names %d maps)", k, ca.Tree(), cb.Tree(), len(pa.Maps))
				}
			}
		})
	}

	t.Run("private maps", func(t *testing.T) {
		f := newFramework()
		a := loadSrc(t, f, "a", srcs["profile-waits"])
		b := loadSrc(t, f, "b", srcs["profile-waits"])
		l := locks.NewShflLock("l")
		if err := f.RegisterLock(l); err != nil {
			t.Fatal(err)
		}
		att, err := f.Attach(l.Name(), "a")
		if err != nil {
			t.Fatal(err)
		}
		att.Wait()
		fireAll(t, l, task.NewOnCPU(f.Topology(), 0), task.NewOnCPU(f.Topology(), 1))
		if err := att.Err(); err != nil {
			t.Fatalf("policy tripped: %v", err)
		}
		for _, want := range []struct {
			p      *Policy
			writes int
		}{{a, 1}, {b, 0}} {
			worst, _ := want.p.Programs[policy.KindLockAcquired].MapByName("worstwait")
			count, _ := want.p.Programs[policy.KindLockContended].MapByName("contended")
			n, c := worst.(*policy.HashMap).Len(), count.(*policy.ArrayMap).Sum(0)
			if n != want.writes || c != uint64(want.writes) {
				t.Errorf("policy %s: worstwait holds %d keys, contended sums to %d; want %d each",
					want.p.Name, n, c, want.writes)
			}
		}
	})
}

// TestArtifactMisses: any difference in what an artifact is derived from
// — one immediate, the program's name, its kind, a map's specification —
// is a different artifact.
func TestArtifactMisses(t *testing.T) {
	const base = `map m hash(key = 8, value = 8, entries = 64);
policy skip_shuffle p { if (m[ctx.lock_id] > 7) { return 1; } return 0; }`
	for _, tc := range []struct{ name, src string }{
		{"imm", `map m hash(key = 8, value = 8, entries = 64);
policy skip_shuffle p { if (m[ctx.lock_id] > 8) { return 1; } return 0; }`},
		{"program name", `map m hash(key = 8, value = 8, entries = 64);
policy skip_shuffle q { if (m[ctx.lock_id] > 7) { return 1; } return 0; }`},
		{"kind", `map m hash(key = 8, value = 8, entries = 64);
policy cmp_node p { if (m[ctx.lock_id] > 7) { return 1; } return 0; }`},
		{"map spec", `map m hash(key = 8, value = 8, entries = 128);
policy skip_shuffle p { if (m[ctx.lock_id] > 7) { return 1; } return 0; }`},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := newFramework()
			a := loadSrc(t, f, "base", base)
			again := loadSrc(t, f, "again", base)
			if len(f.artifacts) != 1 || again.reports()[0] != a.reports()[0] {
				t.Fatalf("the same source twice: %d artifacts", len(f.artifacts))
			}
			b := loadSrc(t, f, "variant", tc.src)
			if len(f.artifacts) != 2 {
				t.Errorf("%d artifacts after the variant, want 2", len(f.artifacts))
			}
			if b.reports()[0] == a.reports()[0] {
				t.Error("the variant is served the base program's report")
			}
		})
	}
}

// TestArtifactConcurrentLoads: loads of one file that race may each
// compute, but one artifact per program is stored and every policy ends up
// holding it.
func TestArtifactConcurrentLoads(t *testing.T) {
	src := shippedPolicies(t)["contention-gate"]
	f := newFramework()
	const loaders = 16
	units := make([]*policydsl.CompiledUnit, loaders)
	for i := range units {
		u, err := policydsl.CompileAndVerify(src)
		if err != nil {
			t.Fatal(err)
		}
		units[i] = u
	}
	pols := make([]*Policy, loaders)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range units {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			p, err := f.LoadPolicy(fmt.Sprintf("cg-%d", i), units[i].Programs...)
			if err != nil {
				t.Error(err)
				return
			}
			pols[i] = p
		}(i)
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	if want := len(units[0].Programs); len(f.artifacts) != want {
		t.Fatalf("%d artifacts after %d concurrent loads, want %d", len(f.artifacts), loaders, want)
	}
	for k := range pols[0].Programs {
		for _, p := range pols[1:] {
			if p.Analysis[k] != pols[0].Analysis[k] || p.Tiers[k].Tree() != pols[0].Tiers[k].Tree() {
				t.Errorf("%s: a concurrent load holds an artifact that lost the race", k)
			}
		}
	}
}

// TestArtifactConcurrentLoadsFire: two loads of one map-carrying file race,
// then fire at once, each on a lock and a task of its own. They hold one
// tree, and each counts exactly its own fires into its own maps and its
// own program. Under -race this is the check that a shared tree is only
// read by the loads that run it.
func TestArtifactConcurrentLoadsFire(t *testing.T) {
	src := shippedPolicies(t)["profile-waits"]
	f := newFramework()
	const fires = 200
	pols := make([]*Policy, 2)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := range pols {
		name := fmt.Sprintf("pw-%d", i)
		l := locks.NewShflLock("lock-" + name)
		if err := f.RegisterLock(l); err != nil {
			t.Fatal(err)
		}
		unit, err := policydsl.CompileAndVerify(src)
		if err != nil {
			t.Fatal(err)
		}
		tk := task.NewOnCPU(f.Topology(), i)
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			p, err := f.LoadPolicy(name, unit.Programs...)
			if err != nil {
				t.Error(err)
				return
			}
			att, err := f.Attach(l.Name(), name)
			if err != nil {
				t.Error(err)
				return
			}
			att.Wait()
			h := l.HookSlot().Peek()
			for n := 0; n < fires; n++ {
				ev := locks.Event{LockID: uint64(n), Task: tk, WaitNS: 100}
				h.OnContended(&ev)
				h.OnAcquired(&ev)
			}
			if err := att.Err(); err != nil {
				t.Errorf("%s tripped: %v", name, err)
			}
			pols[i] = p
		}()
	}
	close(start)
	wg.Wait()
	if t.Failed() {
		return
	}
	for k := range pols[0].Programs {
		if tr := pols[0].Tiers[k].Tree(); tr == nil || tr != pols[1].Tiers[k].Tree() {
			t.Errorf("%s: the two loads hold trees %p and %p", k, tr, pols[1].Tiers[k].Tree())
		}
	}
	for _, p := range pols {
		worst, _ := p.Programs[policy.KindLockAcquired].MapByName("worstwait")
		count, _ := p.Programs[policy.KindLockContended].MapByName("contended")
		if n, c := worst.(*policy.HashMap).Len(), count.(*policy.ArrayMap).Sum(0); n != fires || c != fires {
			t.Errorf("policy %s: worstwait holds %d keys, contended sums to %d; want %d each", p.Name, n, c, fires)
		}
		for k, prog := range p.Programs {
			if st := prog.Stats(); st.Runs.Load() != fires || st.JITRuns.Load() != fires {
				t.Errorf("policy %s %s: %d runs, %d on the JIT tier, want %d each", p.Name, k, st.Runs.Load(), st.JITRuns.Load(), fires)
			}
		}
	}
}

// fireAll fires every member of l's published hook table once with fixed
// inputs.
func fireAll(t *testing.T, l *locks.ShflLock, tk, peer *task.T) {
	t.Helper()
	h := l.HookSlot().Peek()
	if h == nil {
		t.Fatal("no hook table published")
	}
	sinfo := locks.ShuffleInfo{LockID: l.ID(), NowNS: 1000, QueueLen: 4, Round: 1, Batch: 1,
		Shuffler: &locks.Waiter{Task: tk, EnqueueNS: 100},
		Curr:     &locks.Waiter{Task: peer, EnqueueNS: 200}}
	winfo := locks.WaitInfo{LockID: l.ID(), NowNS: 1000, QueueLen: 4, WaitersAhead: 2,
		SpinNS: 50, Curr: &locks.Waiter{Task: tk, EnqueueNS: 100}}
	ev := locks.Event{LockID: l.ID(), Task: tk, NowNS: 1000, WaitNS: 100, HoldNS: 10, QueueLen: 1}
	if h.CmpNode != nil {
		h.CmpNode(&sinfo)
	}
	if h.SkipShuffle != nil {
		h.SkipShuffle(&sinfo)
	}
	if h.ScheduleWaiter != nil {
		h.ScheduleWaiter(&winfo)
	}
	for _, fn := range []func(*locks.Event){h.OnAcquire, h.OnContended, h.OnAcquired, h.OnRelease} {
		if fn != nil {
			fn(&ev)
		}
	}
}

// TestArtifactExecStatsExact: two policies built from identical bytes and
// attached to two locks count their runs into their own programs, exactly
// — on a tree of compares (numa), one of lock_stats_read calls
// (contention-gate) and a map-carrying tree (profile-waits). Each policy's
// Insns equal those of a policy that was the only load of its file and
// fired as often.
func TestArtifactExecStatsExact(t *testing.T) {
	srcs := shippedPolicies(t)
	for _, file := range []string{"numa", "contention-gate", "profile-waits"} {
		t.Run(file, func(t *testing.T) {
			type stat struct{ runs, jitRuns, insns int64 }
			stats := func(p *Policy) map[policy.Kind]stat {
				out := map[policy.Kind]stat{}
				for k, prog := range p.Programs {
					st := prog.Stats()
					out[k] = stat{st.Runs.Load(), st.JITRuns.Load(), st.Insns.Load()}
				}
				return out
			}
			// attachFired loads src under name, attaches it to a new lock and
			// fires every hook n times.
			attachFired := func(f *Framework, name string, n int) *Policy {
				l := locks.NewShflLock("lock-" + name)
				if err := f.RegisterLock(l); err != nil {
					t.Fatal(err)
				}
				p := loadSrc(t, f, name, srcs[file])
				att, err := f.Attach(l.Name(), name)
				if err != nil {
					t.Fatal(err)
				}
				att.Wait()
				tk := task.NewOnCPU(f.Topology(), 0)
				peer := task.NewOnCPU(f.Topology(), f.Topology().CoresPerSocket())
				for i := 0; i < n; i++ {
					fireAll(t, l, tk, peer)
				}
				if err := att.Err(); err != nil {
					t.Fatalf("policy tripped: %v", err)
				}
				return p
			}
			const n, m = 7, 19
			f := newFramework()
			a, b := attachFired(f, "a", n), attachFired(f, "b", m)
			ref := func(runs int) map[policy.Kind]stat { return stats(attachFired(newFramework(), "ref", runs)) }
			for pol, want := range map[*Policy]map[policy.Kind]stat{a: ref(n), b: ref(m)} {
				got := stats(pol)
				for k, w := range want {
					if got[k] != w {
						t.Errorf("policy %s %s: runs/jit runs/insns = %v, want %v", pol.Name, k, got[k], w)
					}
				}
			}
			for k, s := range stats(a) {
				if s.runs != n || s.jitRuns != n {
					t.Errorf("policy a %s: %d runs, %d on the JIT tier, want %d", k, s.runs, s.jitRuns, n)
				}
			}
		})
	}
}

// TestArtifactEditedProgramRelowered: a program edited after it was loaded
// is lowered again when it is loaded again, as new bytes, and that load
// runs the edit; the policy loaded before the edit keeps running the bytes
// it was loaded with, and a fresh load of those bytes still hits the
// artifact they were stored as.
func TestArtifactEditedProgramRelowered(t *testing.T) {
	f := newFramework()
	l := locks.NewShflLock("l")
	if err := f.RegisterLock(l); err != nil {
		t.Fatal(err)
	}
	build := func() *policy.Program {
		return policy.NewBuilder("const", policy.KindCmpNode).ReturnImm(1).MustProgram()
	}
	tk := task.New(f.Topology())
	info := locks.ShuffleInfo{Shuffler: &locks.Waiter{Task: tk}, Curr: &locks.Waiter{Task: tk}}
	decide := func(name string) bool {
		att, err := f.Attach("l", name)
		if err != nil {
			t.Fatal(err)
		}
		att.Wait()
		return l.HookSlot().Peek().CmpNode(&info)
	}

	edited := build()
	first, err := f.LoadPolicy("first", edited)
	if err != nil {
		t.Fatal(err)
	}
	for i := range edited.Insns {
		if edited.Insns[i].Imm == 1 {
			edited.Insns[i].Imm = 0
		}
	}
	if !decide("first") {
		t.Error("the policy loaded before the edit runs the edited bytes")
	}

	again, err := f.LoadPolicy("edited", edited)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.artifacts) != 2 || again.Tiers[policy.KindCmpNode].Tree() == first.Tiers[policy.KindCmpNode].Tree() {
		t.Errorf("the edited bytes hit the original's artifact (%d artifacts)", len(f.artifacts))
	}
	if decide("edited") {
		t.Error("a load of the edited program does not run the edit")
	}

	fresh, err := f.LoadPolicy("fresh", build())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.artifacts) != 2 || fresh.Analysis[policy.KindCmpNode] != first.Analysis[policy.KindCmpNode] {
		t.Errorf("a fresh load of the original bytes missed (%d artifacts)", len(f.artifacts))
	}
	if !decide("fresh") {
		t.Error("the fresh load does not run the original bytes")
	}
}

// TestLifecycleRetainedBytes bounds what a policy lifecycle leaves behind:
// CompileAndVerify → LoadPolicy → Attach → Wait → Detach → Wait over the
// ten shipped files on one framework, HeapAlloc after two collections,
// least of three readings. Until policies can be unloaded each lifecycle
// keeps its Policy, its programs and their private maps; it no longer keeps
// an analysis, a lowering, a hook table or its DSL source. It read 11.8 KB
// before the artifact store; 7.9 KB with it; 7.0 KB once the store shares
// the trees of map-carrying programs too.
func TestLifecycleRetainedBytes(t *testing.T) {
	srcs := shippedPolicies(t)
	f := newFramework()
	if err := f.RegisterLock(locks.NewShflLock("l")); err != nil {
		t.Fatal(err)
	}
	const rounds = 20
	seq := 0
	round := func() {
		for file, src := range srcs {
			// A copy, as a user reading the file gets: what the loaded
			// policy keeps of its source is counted.
			lifecycle(t, f, fmt.Sprintf("%s#%d", file, seq), strings.Clone(src))
			seq++
		}
	}
	round() // the first load of each file stores its artifacts
	heap := func() uint64 {
		runtime.GC()
		runtime.GC()
		var m runtime.MemStats
		runtime.ReadMemStats(&m)
		return m.HeapAlloc
	}
	best := -1.0
	for r := 0; r < 3; r++ {
		before := heap()
		for i := 0; i < rounds; i++ {
			round()
		}
		per := (float64(heap()) - float64(before)) / float64(rounds*len(srcs))
		if best < 0 || per < best {
			best = per
		}
	}
	t.Logf("retained per lifecycle: %.0f B", best)
	const ceiling = 8089 // 7034 B measured, +15 %
	if best > ceiling {
		t.Errorf("a lifecycle retains %.0f B, ceiling %d B", best, ceiling)
	}
}
