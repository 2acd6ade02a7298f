package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"concord/internal/locks"
	"concord/internal/policy"
	"concord/internal/policydsl"
	"concord/internal/profile"
	"concord/internal/task"
)

// occSetProgram promotes the hooked lock on every acquisition.
func occSetProgram(t testing.TB) *policy.Program {
	t.Helper()
	p, err := policy.Assemble("promote", policy.KindLockAcquired, `
		mov  r1, 1
		call occ_set
		exit
	`, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSetOCCModes(t *testing.T) {
	f := newFramework()
	l := locks.NewRWSem("rw")
	if err := f.RegisterLock(l); err != nil {
		t.Fatal(err)
	}

	// Works without a policy attached: the mode lives on the lock.
	patch, err := f.SetOCC("rw", locks.OCCOn)
	if err != nil {
		t.Fatal(err)
	}
	patch.Wait()
	if got := l.OCCGetMode(); got != locks.OCCOn {
		t.Fatalf("mode = %v, want on", got)
	}

	tk := task.New(f.Topology())
	var sink uint64
	l.OptRead(tk, func() { sink++ })
	if st := l.OCCStats(); st.Reads != 1 {
		t.Fatalf("forced-on lock did not speculate: %+v", st)
	}

	if _, err := f.SetOCC("rw", locks.OCCOff); err != nil {
		t.Fatal(err)
	}
	l.OptRead(tk, func() { sink++ })
	if st := l.OCCStats(); st.Reads != 1 {
		t.Fatalf("forced-off lock speculated: %+v", st)
	}

	// Locks without the tier are rejected explicitly.
	if err := f.RegisterLock(locks.NewShflLock("shfl")); err != nil {
		t.Fatal(err)
	}
	if _, err := f.SetOCC("shfl", locks.OCCOn); !errors.Is(err, ErrNoOCCTier) {
		t.Fatalf("SetOCC on shfllock: %v", err)
	}
	if _, err := f.SetOCC("nope", locks.OCCOn); !errors.Is(err, ErrNoSuchLock) {
		t.Fatalf("SetOCC on unknown lock: %v", err)
	}
}

// TestOCCSetHelperRoutesToLock drives the full promotion loop: a
// lock_acquired policy calling occ_set(1) is attached to an rwsem, one
// acquisition runs the hook, and the lock instance comes out promoted.
func TestOCCSetHelperRoutesToLock(t *testing.T) {
	f := newFramework()
	l := locks.NewRWSem("rw")
	if err := f.RegisterLock(l); err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadPolicy("promote", occSetProgram(t)); err != nil {
		t.Fatal(err)
	}
	att, err := f.Attach("rw", "promote")
	if err != nil {
		t.Fatal(err)
	}
	att.Wait()

	tk := task.New(f.Topology())
	l.Lock(tk)
	l.Unlock(tk)
	st := l.OCCStats()
	if !st.Promoted || st.Promotions != 1 {
		t.Fatalf("occ_set did not reach the lock: %+v", st)
	}

	// Speculation now engages without any explicit mode flip.
	var sink uint64
	l.OptRead(tk, func() { sink++ })
	if st := l.OCCStats(); st.Reads != 1 {
		t.Fatalf("promoted lock did not speculate: %+v", st)
	}
}

// TestSetOCCSurvivesReattach pins the ablation contract: the mode is
// carried by the lock instance, so forcing the tier off wins over the
// policy's occ_set and keeps winning after the attachment is rebuilt
// (detach + fresh attach, the same path a supervised reattach takes
// through newAdapter).
func TestSetOCCSurvivesReattach(t *testing.T) {
	f := newFramework()
	l := locks.NewRWSem("rw")
	if err := f.RegisterLock(l); err != nil {
		t.Fatal(err)
	}
	if _, err := f.LoadPolicy("promote", occSetProgram(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Attach("rw", "promote"); err != nil {
		t.Fatal(err)
	}
	patch, err := f.SetOCC("rw", locks.OCCOff)
	if err != nil {
		t.Fatal(err)
	}
	patch.Wait()

	if _, err := f.Detach("rw"); err != nil {
		t.Fatal(err)
	}
	att, err := f.Attach("rw", "promote")
	if err != nil {
		t.Fatal(err)
	}
	att.Wait()

	if got := l.OCCGetMode(); got != locks.OCCOff {
		t.Fatalf("mode after reattach = %v, want off", got)
	}
	tk := task.New(f.Topology())
	l.Lock(tk)
	l.Unlock(tk)
	if st := l.OCCStats(); st.Promotions != 0 {
		t.Fatalf("occ_set promoted a forced-off lock: %+v", st)
	}

	// Handing control back to the policy re-enables promotion on the
	// very next hook execution.
	if _, err := f.SetOCC("rw", locks.OCCAuto); err != nil {
		t.Fatal(err)
	}
	l.Lock(tk)
	l.Unlock(tk)
	if st := l.OCCStats(); st.Promotions != 1 || !st.Promoted {
		t.Fatalf("auto mode did not restore policy control: %+v", st)
	}
}

// occGateLock is what the promotion-loop test needs of its lock.
type occGateLock interface {
	locks.RWLock
	locks.OCCCapable
	OptRead(t *task.T, fn func())
	SetClock(now func() int64)
}

// TestOCCGateStaysPromoted is the property the promotion loop rests on:
// promoting a lock must not erase its reads from the profile the decision
// was taken from. occ-gate.pol, attached the way a user attaches it, sees
// twenty windows of 100 reads to each writer pair; it promotes the lock
// on the first completed window and must then hold — one promotion, no
// demotion, and a read share of 875 ‰ or more in every window sealed
// after promotion, although not one of those reads raised lock_acquired.
//
// It must fail if the framework stops handing the lock's read counter to
// the profiler (Continuous.ObserveSpeculativeReads, from RegisterLock when
// the profiler came first and from EnableContinuousProfiling when the lock
// did): the windows after promotion then hold writers only, the share
// reads 0, and the gate flaps once per window.
//
// A window is 1000 reads and 10 writer pairs times the sampling rate, so
// that it holds the same ~1000 read and ~10 writer samples at rate 64 as
// at rate 1; at 1010 ops a window, rate 64 would leave it 16 samples and
// a one-in-a-hundred chance of a window under 875 ‰ by sampling noise.
func TestOCCGateStaysPromoted(t *testing.T) {
	src := shippedPolicies(t)["occ-gate"]
	if src == "" {
		t.Fatal("occ-gate.pol not found")
	}
	cases := []struct {
		name string
		new  func() occGateLock
		// lockFirst registers the lock before the profiler is enabled.
		lockFirst bool
		// across runs once, mid-way, between two windows.
		across func(t *testing.T, l occGateLock)
	}{
		{"rwsem", func() occGateLock { return locks.NewRWSem("rw") }, false, func(*testing.T, occGateLock) {}},
		{"switchable", func() occGateLock { return locks.NewSwitchableRWLock("rw", locks.NewRWSem("a")) }, true,
			func(t *testing.T, l occGateLock) {
				s := l.(*locks.SwitchableRWLock)
				s.Switch(locks.NewRWSem("b")).Wait()
				if s.Switches() != 1 {
					t.Fatalf("%d switches, want 1", s.Switches())
				}
			}},
	}
	for _, tc := range cases {
		for _, rate := range []int{1, 64} {
			t.Run(fmt.Sprintf("%s/rate%d", tc.name, rate), func(t *testing.T) {
				const windows, window = 20, int64(time.Millisecond)
				var now atomic.Int64
				f := newFramework()
				cprof := profile.NewContinuous(profile.ContinuousConfig{
					SampleRate: rate, Window: time.Duration(window), Clock: now.Load,
				})
				cprof.SetEnabled(true)
				l := tc.new()
				l.SetClock(now.Load)
				if !tc.lockFirst {
					f.EnableContinuousProfiling(cprof)
				}
				if err := f.RegisterLock(l); err != nil {
					t.Fatal(err)
				}
				if tc.lockFirst {
					f.EnableContinuousProfiling(cprof)
				}
				unit, err := policydsl.CompileAndVerify(src)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.LoadPolicy("occ-gate", unit.Programs...); err != nil {
					t.Fatal(err)
				}
				att, err := f.Attach("rw", "occ-gate")
				if err != nil {
					t.Fatal(err)
				}
				att.Wait()
				readShare := cprof.StatReader(l.ID(), l.Name())

				tk := task.New(f.Topology())
				var data, got uint64
				read := func() { got = atomic.LoadUint64(&data) }
				for w := 0; w < windows; w++ {
					now.Store(int64(w)*window + 1)
					if w > 0 {
						// Seal the window just ended (at rate 64 no sampled
						// event may come along to do it) and look at it the
						// way the policy will.
						if _, ok := cprof.SnapshotFor("rw"); !ok {
							t.Fatalf("window %d: no snapshot", w)
						}
						share, st := readShare(profile.FieldReadShare), l.OCCStats()
						if share < 875 {
							t.Errorf("window %d sealed with read share %d ‰ (%+v), want >= 875", w-1, share, st)
						}
						if st.Promoted != (w > 1) {
							t.Fatalf("entering window %d: %+v, want promotion in window 1", w, st)
						}
					}
					if w == windows/2 {
						tc.across(t, l)
					}
					for i := 0; i < 10*rate; i++ {
						for j := 0; j < 100; j++ {
							l.OptRead(tk, read)
						}
						l.Lock(tk)
						atomic.StoreUint64(&data, data+1)
						l.Unlock(tk)
					}
				}
				st := l.OCCStats()
				if !st.Promoted || st.Promotions != 1 || st.Demotions != 0 {
					t.Fatalf("after %d windows: %+v, want promoted once and never demoted", windows, st)
				}
				// Every read after the one whose lock_acquired promoted the lock.
				if want := uint64(windows-1)*1000*uint64(rate) - 1; st.Reads != want || got+1 != data {
					t.Fatalf("%d speculative reads, want %d; last read saw write %d of %d", st.Reads, want, got, data)
				}
			})
		}
	}
}
