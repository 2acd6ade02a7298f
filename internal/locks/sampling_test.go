package locks

import (
	"math"
	"sync/atomic"
	"testing"

	"concord/internal/task"
	"concord/internal/topology"
)

// Sampled cross-lock accounting (DESIGN §7 decision 6): a lock whose table
// subscribes to neither lock_acquired nor lock_release times one
// acquisition in sampleEvery, at that weight. These tests hold the
// estimate a policy on another lock reads (task.CSAverage) to the truth
// under a clock the test advances by hand, so every section is exactly as
// long as the test made it.

// handClock gives every lock in ls one shared clock that moves only when
// the test advances it.
func handClock(ls ...Lock) *atomic.Int64 {
	now := new(atomic.Int64)
	now.Store(1) // 0 means "no section open"
	for _, l := range ls {
		l.(interface{ SetClock(func() int64) }).SetClock(now.Load)
	}
	return now
}

// section holds l for ns on the hand clock.
func section(l Lock, tk *task.T, now *atomic.Int64, ns int64) {
	l.Lock(tk)
	now.Add(ns)
	l.Unlock(tk)
}

func within15(got int64, want float64) bool {
	return math.Abs(float64(got)-want) <= 0.15*want
}

// TestSampledAverageNoPhaseLock: one task alternating a 10 ns section on
// one unhooked lock with a 1000 ns section on another reads a mean of 505.
// The draw must not have a period: with a masked per-task counter in its
// place (count&(sampleEvery-1) == 0) every timed acquisition falls on the
// same lock of the two, and the estimate is 10 or 1000 — this test fails.
func TestSampledAverageNoPhaseLock(t *testing.T) {
	topo := topology.New(2, 4)
	short, long := NewShflLock("short"), NewMCSLock("long")
	now := handClock(short, long)
	tk := task.NewOnCPU(topo, 0)
	const rounds = 8192
	for i := 0; i < rounds; i++ {
		section(short, tk, now, 10)
		section(long, tk, now, 1000)
	}
	if got := tk.CSAverage(); !within15(got, 505) {
		t.Errorf("CSAverage %d after %d alternating 10/1000 ns sections, want within 15%% of 505", got, 2*rounds)
	}
	// The counts are estimates too: scaled, not tallied.
	if n := tk.CSCount(); !binomialOK(int(n)/sampleEvery, 2*rounds) {
		t.Errorf("CSCount %d, want about %d", n, 2*rounds)
	}
}

// TestSampledAndExactSectionsMix: the same task on a lock that asked for
// every hold time (an OnRelease table: weight 1) and on one that did not
// (sampled: weight sampleEvery), in equal numbers. The weighted mean is
// the true one, 505; summing timed sections unweighted would count the
// exact lock sampleEvery times as often as the other and read about 68.
func TestSampledAndExactSectionsMix(t *testing.T) {
	topo := topology.New(2, 4)
	exact, sampled := NewShflLock("exact"), NewShflLock("sampled")
	now := handClock(exact, sampled)
	var holds, holdSum int64
	exact.HookSlot().Replace("release", &Hooks{OnRelease: func(ev *Event) {
		holds++
		holdSum += ev.HoldNS
	}})
	tk := task.NewOnCPU(topo, 0)
	const rounds = 8192
	for i := 0; i < rounds; i++ {
		section(exact, tk, now, 10)
		section(sampled, tk, now, 1000)
	}
	if holds != rounds || holdSum != 10*rounds {
		t.Errorf("subscribed lock: %d release events summing to %d ns, want %d and %d: every hold exact",
			holds, holdSum, rounds, 10*rounds)
	}
	if got := tk.CSAverage(); !within15(got, 505) {
		t.Errorf("CSAverage %d over %d exact 10 ns and %d sampled 1000 ns sections, want within 15%% of 505",
			got, rounds, rounds)
	}
}

// TestNestedSections: the open section belongs to the lock that opened it.
func TestNestedSections(t *testing.T) {
	topo := topology.New(2, 4)
	releaseHold := func(l *ShflLock, into *int64) {
		l.HookSlot().Replace("release", &Hooks{OnRelease: func(ev *Event) { *into = ev.HoldNS }})
	}

	// An untimed inner release does not close the outer lock's section
	// early: the outer's hold spans the outer. (One inner acquisition in
	// sampleEvery is timed and takes the section over; the outer's hold is
	// then unknown, never partial.)
	t.Run("untimed inside timed", func(t *testing.T) {
		outer, inner := NewShflLock("outer"), NewShflLock("inner")
		now := handClock(outer, inner)
		var hold int64
		releaseHold(outer, &hold)
		tk := task.NewOnCPU(topo, 0)
		spanned := 0
		for i := 0; i < 256; i++ {
			total, count := tk.CSTotal(), tk.CSCount()
			outer.Lock(tk)
			now.Add(100)
			inner.Lock(tk)
			innerTimed := tk.CSOpenOn(inner.ID())
			now.Add(10)
			inner.Unlock(tk)
			now.Add(100)
			hold = -1
			outer.Unlock(tk)
			if innerTimed {
				if hold != 0 {
					t.Fatalf("round %d: outer HoldNS=%d after a timed inner section, want 0 (unknown)", i, hold)
				}
				continue
			}
			spanned++
			if hold != 210 {
				t.Fatalf("round %d: outer HoldNS=%d, want its own span 210", i, hold)
			}
			if dt, dc := tk.CSTotal()-total, tk.CSCount()-count; dt != 210 || dc != 1 {
				t.Fatalf("round %d: accumulated %d ns over %d sections, want 210 over 1", i, dt, dc)
			}
		}
		if spanned == 0 {
			t.Error("every inner acquisition was timed")
		}
	})

	// lock_release never carries another section's hold: with both locks
	// subscribed the inner section replaces the outer's, and the outer
	// reports 0 (unknown) — not the inner's 10 ns, which it reported when
	// an exit with nothing open returned the previous section's length.
	t.Run("timed inside timed", func(t *testing.T) {
		outer, inner := NewShflLock("outer"), NewShflLock("inner")
		stepClock(outer)
		inner.SetClock(outer.now) // one clock, stepping 10 ns per read
		var outerHold, innerHold int64 = -1, -1
		releaseHold(outer, &outerHold)
		releaseHold(inner, &innerHold)
		tk := task.NewOnCPU(topo, 0)
		outer.Lock(tk)
		inner.Lock(tk)
		inner.Unlock(tk)
		outer.Unlock(tk)
		if innerHold != 10 {
			t.Errorf("inner HoldNS=%d, want 10", innerHold)
		}
		if outerHold != 0 && outerHold != 30 {
			t.Errorf("outer HoldNS=%d, want 0 (its section was replaced by the inner lock's) or its own span 30", outerHold)
		}
		if n, total := tk.CSCount(), tk.CSTotal(); n != 1 || total != 10 {
			t.Errorf("accumulated %d ns over %d sections, want the inner's 10 over 1", total, n)
		}
	})
}
