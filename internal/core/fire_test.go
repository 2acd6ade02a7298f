package core

import (
	"sync"
	"testing"

	"concord/internal/locks"
	"concord/internal/policy"
	"concord/internal/policy/jit"
	"concord/internal/policydsl"
	"concord/internal/task"
)

// TestExecStatsExactAcrossTasks: P tasks fire two attached trees at once,
// profile-waits' worst (lock_acquired) and numa's cmp_node, each task
// counting into cells of its own. A reader running beside them sees every
// counter only grow, and once they are joined each program's Stats hold
// exactly the fires made: Runs and JITRuns P·N each, and Insns,
// HelperCalls and MapOps the sums over the paths taken, which are what
// the same fires make one at a time on a fresh load.
func TestExecStatsExactAcrossTasks(t *testing.T) {
	const P, N = 4, 500
	srcs := shippedPolicies(t)
	type target struct {
		progs    [2]*policy.Program // worst, cmp_node
		acquired func(*locks.Event)
		cmpNode  func(*locks.ShuffleInfo) bool
	}
	load := func() target {
		f := newFramework()
		hooks := func(file string) (*Policy, *locks.Hooks) {
			l := locks.NewShflLock(file)
			if err := f.RegisterLock(l); err != nil {
				t.Fatal(err)
			}
			p := loadSrc(t, f, file, srcs[file])
			att, err := f.Attach(l.Name(), file)
			if err != nil {
				t.Fatal(err)
			}
			att.Wait()
			return p, l.HookSlot().Peek()
		}
		prof, ph := hooks("profile-waits")
		numa, nh := hooks("numa")
		return target{
			progs:    [2]*policy.Program{prof.Programs[policy.KindLockAcquired], numa.Programs[policy.KindCmpNode]},
			acquired: ph.OnAcquired,
			cmpNode:  nh.CmpNode,
		}
	}
	topo := newFramework().Topology()
	tasks, peers := make([]*task.T, P), make([]*task.T, P)
	for g := range tasks {
		tasks[g] = task.NewOnCPU(topo, g)
		// Even tasks compare a waiter on their own socket, odd ones a
		// waiter on the other: cmp_node takes both of its paths.
		peer := g
		if g%2 == 1 {
			peer = (g + topo.CoresPerSocket()) % topo.NumCPUs()
		}
		peers[g] = task.NewOnCPU(topo, peer)
	}
	// fire is task g's n-th pair of fires. Each task acquires a lock of its
	// own with a longer wait every time, so worst takes its update path on
	// every fire, whoever runs first.
	fire := func(tg target, g, n int) {
		tg.acquired(&locks.Event{LockID: uint64(100 + g), Task: tasks[g], WaitNS: int64(n + 1)})
		tg.cmpNode(&locks.ShuffleInfo{Shuffler: &locks.Waiter{Task: tasks[g]}, Curr: &locks.Waiter{Task: peers[g]}})
	}
	type counts [5]int64 // runs, JIT runs, insns, helper calls, map ops
	read := func(p *policy.Program) counts {
		s := p.Stats()
		return counts{s.Runs.Load(), s.JITRuns.Load(), s.Insns.Load(), s.HelperCalls.Load(), s.MapOps.Load()}
	}

	ref := load()
	for g := 0; g < P; g++ {
		for n := 0; n < N; n++ {
			fire(ref, g, n)
		}
	}

	got := load()
	stop, readerDone := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(readerDone)
		var last [2]counts
		for {
			select {
			case <-stop:
				return
			default:
			}
			for i, p := range got.progs {
				now := read(p)
				for j := range now {
					if now[j] < last[i][j] {
						t.Errorf("%s: counter %d went from %d to %d", p.Name, j, last[i][j], now[j])
						return
					}
				}
				last[i] = now
			}
		}
	}()
	var wg sync.WaitGroup
	for g := 0; g < P; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < N; n++ {
				fire(got, g, n)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-readerDone

	for i, p := range got.progs {
		c, want := read(p), read(ref.progs[i])
		if c[0] != P*N || c[1] != P*N {
			t.Errorf("%s: %d runs, %d on the JIT tier, want %d each", p.Name, c[0], c[1], P*N)
		}
		if c != want {
			t.Errorf("%s: runs/JIT runs/insns/helper calls/map ops = %v, one at a time %v", p.Name, c, want)
		}
	}
}

// TestAcquiredNoNowFollowsCtxReads: the adapter declares that its
// lock_acquired table never reads NowNS exactly when the admitted program
// loads no now_ns — a tree or an interpreted program alike, under TierAuto
// and TierForceVM — and an edit to the caller's program after the load
// changes nothing: what fires is the framework's copy, which the report
// describes.
func TestAcquiredNoNowFollowsCtxReads(t *testing.T) {
	srcs := shippedPolicies(t)
	for _, tc := range []struct {
		name, src string
		tier      jit.Tier
		noNow     bool
	}{
		{"profile-waits", srcs["profile-waits"], jit.TierJIT, true},
		{"occ-gate", srcs["occ-gate"], jit.TierJIT, true},
		{"stamp", "policy lock_acquired stamp {\n if (ctx.now_ns > 5) { return 1; }\n return 0;\n}\n", jit.TierJIT, false},
		// now() calls ktime_ns, which no tree makes: the interpreter runs
		// these two.
		{"clock", "policy lock_acquired clock {\n if (now() > 5) { return 1; }\n return 0;\n}\n", jit.TierVM, true},
		{"clock-stamp", "policy lock_acquired clock {\n if (now() > ctx.now_ns) { return 1; }\n return 0;\n}\n", jit.TierVM, false},
	} {
		for _, mode := range []TierMode{TierAuto, TierForceVM} {
			t.Run(tc.name+"/"+mode.String(), func(t *testing.T) {
				f := newFramework()
				l := locks.NewShflLock(tc.name)
				if err := f.RegisterLock(l); err != nil {
					t.Fatal(err)
				}
				unit, err := policydsl.CompileAndVerify(tc.src)
				if err != nil {
					t.Fatal(err)
				}
				pol, err := f.LoadPolicy(tc.name, unit.Programs...)
				if err != nil {
					t.Fatal(err)
				}
				if ch := pol.Tiers[policy.KindLockAcquired]; ch.Tier != tc.tier {
					t.Fatalf("admitted on %s (%s), test needs %s", ch.Tier, ch.Reason, tc.tier)
				}
				attach := func() *locks.Hooks {
					att, err := f.Attach(l.Name(), tc.name)
					if err != nil {
						t.Fatal(err)
					}
					att.Wait()
					if mode != TierAuto {
						patch, err := f.SetTier(l.Name(), mode)
						if err != nil {
							t.Fatal(err)
						}
						patch.Wait()
					}
					return l.HookSlot().Peek()
				}
				if got := attach().AcquiredNoNow; got != tc.noNow {
					t.Errorf("AcquiredNoNow = %v, want %v", got, tc.noNow)
				}
				for _, prog := range unit.Programs {
					if prog.Kind == policy.KindLockAcquired {
						prog.Insns[len(prog.Insns)-2].Imm++ // the last return's value
					}
				}
				if got := attach().AcquiredNoNow; got != tc.noNow {
					t.Errorf("after an edit to the caller's program, AcquiredNoNow = %v, want %v", got, tc.noNow)
				}
			})
		}
	}
}
