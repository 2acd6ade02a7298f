package core

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"concord/internal/locks"
	"concord/internal/policy"
	"concord/internal/policydsl"
	"concord/internal/task"
)

// shippedPolicies returns the source of every policies/*.pol by base name.
func shippedPolicies(t *testing.T) map[string]string {
	t.Helper()
	paths, err := filepath.Glob(filepath.Join("..", "..", "policies", "*.pol"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no shipped policies found: %v", err)
	}
	out := make(map[string]string, len(paths))
	for _, p := range paths {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		out[strings.TrimSuffix(filepath.Base(p), ".pol")] = string(src)
	}
	return out
}

// TestHookFireZeroAlloc pins the attached lock path's allocation
// contract on the closures the framework itself builds: for every
// shipped policy, attached the public way on both tiers, each member of
// the published hook table runs a fire without touching the allocator
// once its task's scratch exists — profile-waits.pol's map calls
// included: a lookup that hits, one that misses and inserts, and a
// per-CPU add.
func TestHookFireZeroAlloc(t *testing.T) {
	for name, src := range shippedPolicies(t) {
		for _, mode := range []TierMode{TierAuto, TierForceVM} {
			t.Run(name+"/"+mode.String(), func(t *testing.T) {
				f := newFramework()
				l := locks.NewShflLock("l")
				if err := f.RegisterLock(l); err != nil {
					t.Fatal(err)
				}
				unit, err := policydsl.CompileAndVerify(src)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.LoadPolicy(name, unit.Programs...); err != nil {
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
				h := l.HookSlot().Peek()
				if h == nil {
					t.Fatal("no hook table published")
				}

				tk := task.NewOnCPU(f.Topology(), 0)
				peer := task.NewOnCPU(f.Topology(), f.Topology().CoresPerSocket())
				sinfo := locks.ShuffleInfo{LockID: l.ID(), NowNS: 1000, QueueLen: 4, Round: 1, Batch: 1,
					Shuffler: &locks.Waiter{Task: tk, EnqueueNS: 100},
					Curr:     &locks.Waiter{Task: peer, EnqueueNS: 200}}
				winfo := locks.WaitInfo{LockID: l.ID(), NowNS: 1000, QueueLen: 4, WaitersAhead: 2,
					SpinNS: 50, Curr: &locks.Waiter{Task: tk, EnqueueNS: 100}}
				ev := locks.Event{LockID: l.ID(), Task: tk, NowNS: 1000, WaitNS: 100, HoldNS: 10, QueueLen: 1}

				fires := map[string]func(){}
				if h.CmpNode != nil {
					fires["cmp_node"] = func() { h.CmpNode(&sinfo) }
				}
				if h.SkipShuffle != nil {
					fires["skip_shuffle"] = func() { h.SkipShuffle(&sinfo) }
				}
				if h.ScheduleWaiter != nil {
					fires["schedule_waiter"] = func() { h.ScheduleWaiter(&winfo) }
				}
				for k, fn := range map[string]func(*locks.Event){
					"lock_acquire": h.OnAcquire, "lock_contended": h.OnContended,
					"lock_acquired": h.OnAcquired, "lock_release": h.OnRelease,
				} {
					if fn != nil {
						fires[k] = func() { fn(&ev) }
						// a lock not seen before: a lookup that misses, then
						// an insert
						fresh := ev
						fires[k+"/new-lock"] = func() { fresh.LockID++; fn(&fresh) }
					}
				}
				if len(fires) == 0 {
					t.Fatal("attached table has no members")
				}
				for k, fire := range fires {
					fire() // the task's first fire allocates its scratch; maps take their entries
					if avg := testing.AllocsPerRun(100, fire); avg != 0 {
						t.Errorf("%s fire allocates %.2f/op, want 0", k, avg)
					}
				}
				if err := att.Err(); err != nil {
					t.Fatalf("policy tripped while firing: %v", err)
				}
			})
		}
	}
}

// TestFireScratchBelongsToTask pins what moved from the adapter into the
// task's scratch: one task firing two attachments' hooks draws a single
// rand stream (not the same stream twice), and each fire reads the
// lock_stats_read source of the attachment whose hook is firing.
func TestFireScratchBelongsToTask(t *testing.T) {
	a, b := &adapter{}, &adapter{}
	a.setLockStats(func(uint64) uint64 { return 1 })
	b.setLockStats(func(uint64) uint64 { return 2 })
	tk := task.New(newFramework().Topology())

	draw := func(ad *adapter) (rand, stat uint64) {
		sc, _ := ad.takeFire(tk, cmpL)
		defer putFire(tk, sc)
		return sc.env.Rand(), sc.env.LockStat(0)
	}
	r1, s1 := draw(a)
	r2, s2 := draw(b)
	if r1 == r2 {
		t.Errorf("second attachment replayed the task's rand stream (%#x twice)", r1)
	}
	if s1 != 1 || s2 != 2 {
		t.Errorf("lock stats read %d then %d, want each attachment's own (1 then 2)", s1, s2)
	}

	// A reentrant fire finds the slot empty, runs on a scratch of its own,
	// and leaves the context words of the fire it interrupted alone.
	outer, w := a.takeFire(tk, cmpL)
	w[0] = 42
	inner, _ := b.takeFire(tk, cmpL)
	if inner == outer {
		t.Fatal("reentrant fire was handed the scratch already in use")
	}
	putFire(tk, inner)
	if w[0] != 42 {
		t.Error("reentrant fire cleared the outer fire's context")
	}
	putFire(tk, outer)
}

// lifecycle runs one full policy lifecycle for src the way a user does.
func lifecycle(t *testing.T, f *Framework, name, src string) {
	t.Helper()
	unit, err := policydsl.CompileAndVerify(src)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadPolicy(name, unit.Programs...); err != nil {
		t.Fatal(err)
	}
	att, err := f.Attach("l", name)
	if err != nil {
		t.Fatal(err)
	}
	att.Wait()
	patch, err := f.Detach("l")
	if err != nil {
		t.Fatal(err)
	}
	patch.Wait()
}

// TestLifecycleAllocBudget bounds what one CompileAndVerify → LoadPolicy
// → Attach → Wait → Detach → Wait costs the allocator when LoadPolicy hits
// the artifact store, as every load of bytes loaded before does. The lock
// path no longer makes garbage, so nothing recycles a lifecycle's memory
// for it: every byte here is fresh. Before the verifier pooled its state
// array and Attach reused admission's closure this read 190.7 KB / 694
// mallocs for occ-gate.pol, and 98.9 KB / 562 before loads shared their
// analysis and lowering; it reads 19.1 KB / 188 now.
func TestLifecycleAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops puts at random under -race; the budget holds in normal builds")
	}
	src := shippedPolicies(t)["occ-gate"]
	if src == "" {
		t.Fatal("occ-gate.pol not found")
	}
	f := newFramework()
	if err := f.RegisterLock(locks.NewRWSem("l")); err != nil {
		t.Fatal(err)
	}
	// MemStats are process-wide, and earlier tests leave timers and
	// recorder goroutines behind: anything they allocate lands in a
	// reading, never the other way, so the least of a few is the cost.
	var bytes, mallocs uint64
	for i := 0; i < 7; i++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		lifecycle(t, f, fmt.Sprintf("occ-gate-%d", i), src)
		runtime.ReadMemStats(&after)
		b, m := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
		if i == 2 || (i > 2 && b < bytes) { // the first two fill the store and warm the pools
			bytes, mallocs = b, m
		}
	}
	t.Logf("occ-gate.pol lifecycle: %.1f KB, %d mallocs", float64(bytes)/1024, mallocs)
	if bytes > 24<<10 {
		t.Errorf("lifecycle allocates %.1f KB, budget 24 KB", float64(bytes)/1024)
	}
}

// TestAttachDoesNotServeStaleClosure: the lowering made at admission — a
// closure, or a decision tree — is reused by Attach only while the program
// is what was admitted. A bytecode edit after LoadPolicy must reach the
// hook table — here it flips the policy's decision, on both the auto and
// the forced-JIT path.
func TestAttachDoesNotServeStaleClosure(t *testing.T) {
	progs := map[string]func() *policy.Program{
		"closures": func() *policy.Program {
			return policy.NewBuilder("const", policy.KindCmpNode).Call(policy.HelperRand).ReturnImm(1).MustProgram()
		},
		"tree": func() *policy.Program {
			return policy.NewBuilder("const", policy.KindCmpNode).ReturnImm(1).MustProgram()
		},
	}
	for _, mode := range []TierMode{TierAuto, TierForceJIT} {
		t.Run(mode.String(), func(t *testing.T) {
			for lowering, mk := range progs {
				t.Run(lowering, func(t *testing.T) {
					f := newFramework()
					l := locks.NewShflLock("l")
					if err := f.RegisterLock(l); err != nil {
						t.Fatal(err)
					}
					prog := mk()
					pol, err := f.LoadPolicy("const", prog)
					if err != nil {
						t.Fatal(err)
					}
					if pol.Tier(policy.KindCmpNode) != "jit" {
						t.Fatalf("admitted on %q, test needs the JIT tier", pol.Tier(policy.KindCmpNode))
					}
					ch := pol.Tiers[policy.KindCmpNode]
					served := func() bool { return ch.FnFor(prog) != nil || ch.TreeFor(prog) != nil }
					if !served() {
						t.Fatal("unmodified program is not served its admission lowering")
					}
					if got := strings.Fields(ch.Lowering())[0]; got != lowering {
						t.Fatalf("admitted as %q, test needs %s", ch.Lowering(), lowering)
					}

					tk := task.New(f.Topology())
					info := locks.ShuffleInfo{Shuffler: &locks.Waiter{Task: tk}, Curr: &locks.Waiter{Task: tk}}
					table := func() *locks.Hooks {
						att, err := f.Attach("l", "const")
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
						return l.HookSlot().Peek()
					}
					if !table().CmpNode(&info) {
						t.Fatal("return 1 policy said no")
					}

					for i := range prog.Insns {
						if prog.Insns[i].Imm == 1 {
							prog.Insns[i].Imm = 0
						}
					}
					if served() {
						t.Error("edited program is still served the admission lowering")
					}
					if table().CmpNode(&info) {
						t.Error("hook table built after the edit still runs the admitted bytecode")
					}
				})
			}
		})
	}
}
