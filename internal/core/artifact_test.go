package core

import (
	"fmt"
	"reflect"
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

// lowering identifies the lowering a choice serves: the object that two
// loads of the same bytes share, whether it holds a tree or closures.
func lowering(ch jit.Choice) uintptr {
	return reflect.ValueOf(ch).FieldByName("from").Pointer()
}

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
// report; a map-free program also shares its lowering (tree or closures),
// while a map-carrying one is lowered against its own maps at each load.
func TestArtifactSharedAcrossLoads(t *testing.T) {
	srcs := shippedPolicies(t)
	for _, file := range []string{"numa", "contention-gate", "profile-waits"} {
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
				shared := lowering(ca) == lowering(cb)
				if want := len(pa.Maps) == 0; shared != want {
					t.Errorf("%s: lowering shared = %v, want %v (program names %d maps)", k, shared, want, len(pa.Maps))
				}
				if ca.FnFor(pa) == nil || cb.FnFor(pb) == nil {
					t.Errorf("%s: a loaded program is not served its own closure", k)
				}
				if ca.FnFor(pb) != nil {
					t.Errorf("%s: one policy's closure is served to the other's program", k)
				}
				if ta := ca.TreeFor(pa); ta != cb.TreeFor(pb) {
					t.Errorf("%s: two trees for the same bytes", k)
				}
			}
		})
	}
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
			if p.Analysis[k] != pols[0].Analysis[k] || lowering(p.Tiers[k]) != lowering(pols[0].Tiers[k]) {
				t.Errorf("%s: a concurrent load holds an artifact that lost the race", k)
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
// — on the tree tier (numa), the closure tier (contention-gate) and a
// map-carrying closure (profile-waits). Each policy's Insns equal those of
// a policy that was the only load of its file and fired as often.
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
// is lowered again when attached, and the edit reaches the lock; a fresh
// load of the original bytes still hits the artifact they were stored as.
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
	first, err := f.LoadPolicy("edited", edited)
	if err != nil {
		t.Fatal(err)
	}
	for i := range edited.Insns {
		if edited.Insns[i].Imm == 1 {
			edited.Insns[i].Imm = 0
		}
	}
	if decide("edited") {
		t.Error("the edited program's hook still runs the bytes it was loaded with")
	}

	fresh, err := f.LoadPolicy("fresh", build())
	if err != nil {
		t.Fatal(err)
	}
	if len(f.artifacts) != 1 || fresh.Analysis[policy.KindCmpNode] != first.Analysis[policy.KindCmpNode] {
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
// before the artifact store; 7.9 KB with it.
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
	const ceiling = 9032 // 7854 B measured, +15 %
	if best > ceiling {
		t.Errorf("a lifecycle retains %.0f B, ceiling %d B", best, ceiling)
	}
}
