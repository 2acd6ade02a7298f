package task

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"concord/internal/topology"
)

func topo() *topology.Topology { return topology.New(4, 4) }

func TestIdentity(t *testing.T) {
	tp := topo()
	a, b := New(tp), New(tp)
	if a.ID() == b.ID() {
		t.Error("duplicate task IDs")
	}
	if a.Topology() != tp {
		t.Error("topology lost")
	}
	c := NewOnCPU(tp, 9)
	if c.CPU() != 9 || c.Socket() != 2 {
		t.Errorf("pinned task: cpu=%d socket=%d", c.CPU(), c.Socket())
	}
}

func TestMigrate(t *testing.T) {
	tk := New(topo())
	tk.Migrate(12)
	if tk.CPU() != 12 || tk.Socket() != 3 {
		t.Errorf("after migrate: cpu=%d socket=%d", tk.CPU(), tk.Socket())
	}
	defer func() {
		if recover() == nil {
			t.Error("migrate to bad cpu should panic")
		}
	}()
	tk.Migrate(99)
}

func TestPriority(t *testing.T) {
	tk := New(topo())
	if tk.Priority() != PrioNormal {
		t.Errorf("default prio = %d", tk.Priority())
	}
	tk.SetPriority(PrioLow)
	if old := tk.BoostPriority(PrioHigh); old != PrioLow {
		t.Errorf("boost returned %d", old)
	}
	if tk.Priority() != PrioHigh {
		t.Errorf("after boost: %d", tk.Priority())
	}
	// Boost never lowers.
	tk.BoostPriority(PrioLow)
	if tk.Priority() != PrioHigh {
		t.Error("boost lowered priority")
	}
}

func TestBoostPriorityConcurrent(t *testing.T) {
	tk := New(topo())
	tk.SetPriority(0)
	var wg sync.WaitGroup
	for i := 1; i <= 50; i++ {
		wg.Add(1)
		go func(p int64) {
			defer wg.Done()
			tk.BoostPriority(p)
		}(int64(i))
	}
	wg.Wait()
	if tk.Priority() != 50 {
		t.Errorf("after concurrent boosts: %d, want 50", tk.Priority())
	}
}

func TestHeldLockTracking(t *testing.T) {
	tk := New(topo())
	if tk.Holds(3) || tk.HeldCount() != 0 {
		t.Fatal("fresh task holds locks")
	}
	tk.NoteAcquired(3)
	tk.NoteAcquired(7)
	if !tk.Holds(3) || !tk.Holds(7) || tk.HeldCount() != 2 {
		t.Errorf("held: %b", tk.HeldMask())
	}
	tk.NoteReleased(3)
	if tk.Holds(3) || !tk.Holds(7) || tk.HeldCount() != 1 {
		t.Errorf("after release: %b", tk.HeldMask())
	}
	// IDs beyond the mask are tolerated, just untracked.
	tk.NoteAcquired(200)
	if tk.Holds(200) {
		t.Error("untrackable ID reported as held")
	}
	tk.NoteReleased(200)
}

func TestHeldMaskProperty(t *testing.T) {
	f := func(ids []uint8) bool {
		tk := New(topo())
		want := uint64(0)
		for _, id := range ids {
			lid := uint64(id) % 64
			tk.NoteAcquired(lid)
			want |= 1 << lid
		}
		return tk.HeldMask() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCSAccounting(t *testing.T) {
	tk := New(topo())
	if tk.CSAverage() != 0 {
		t.Error("empty average nonzero")
	}
	tk.EnterCS(1000)
	tk.ExitCS(1500)
	tk.EnterCS(2000)
	tk.ExitCS(2100)
	if tk.CSCount() != 2 || tk.CSTotal() != 600 || tk.CSLast() != 100 {
		t.Errorf("count=%d total=%d last=%d", tk.CSCount(), tk.CSTotal(), tk.CSLast())
	}
	if tk.CSAverage() != 300 {
		t.Errorf("avg = %d", tk.CSAverage())
	}
	// Exit without enter is a no-op; negative durations clamp to 0.
	tk.ExitCS(5000)
	if tk.CSCount() != 2 {
		t.Error("unpaired exit counted")
	}
	tk.EnterCS(9000)
	tk.ExitCS(8000)
	if tk.CSLast() != 0 {
		t.Errorf("negative CS not clamped: %d", tk.CSLast())
	}
}

// TestCSSectionTagAndWeight: a section belongs to the lock that opened it
// and is accounted at its weight.
func TestCSSectionTagAndWeight(t *testing.T) {
	tk := New(topo())
	tk.EnterCSOn(3, 1000, 1)
	if !tk.CSOpenOn(3) || tk.CSOpenOn(7) {
		t.Error("open section not tagged with the lock that opened it")
	}
	tk.EnterCSOn(7, 1100, csSampleEvery) // a nested timed section replaces it
	if tk.CSOpenOn(3) || !tk.CSOpenOn(7) {
		t.Error("nested section did not take the tag")
	}
	if d := tk.ExitCS(1400); d != 300 {
		t.Errorf("section length %d, want 300", d)
	}
	if tk.CSOpenOn(7) {
		t.Error("section still open after exit")
	}
	// Lock 3's release finds nothing to close: its hold is unknown (0),
	// not lock 7's.
	if d := tk.ExitCS(1500); d != 0 {
		t.Errorf("exit with no section open returned %d, want 0", d)
	}
	if tk.CSCount() != csSampleEvery || tk.CSTotal() != 300*csSampleEvery || tk.CSLast() != 300 || tk.CSAverage() != 300 {
		t.Errorf("weighted section: count=%d total=%d last=%d avg=%d",
			tk.CSCount(), tk.CSTotal(), tk.CSLast(), tk.CSAverage())
	}
	tk.EnterCS(2000) // belongs to no lock
	if tk.CSOpenOn(0) || tk.CSOpenOn(7) {
		t.Error("EnterCS section attributed to a lock")
	}
	tk.ExitCS(2100)
	if want := int64(300*csSampleEvery+100) / (csSampleEvery + 1); tk.CSAverage() != want {
		t.Errorf("mixed average %d, want %d", tk.CSAverage(), want)
	}
}

// TestSampleCSRate: the draw comes up one time in csSampleEvery — overall
// and on every fixed phase of a periodic stream, which is the property a
// masked counter lacks — returns the weight when it does, and differs
// from task to task.
func TestSampleCSRate(t *testing.T) {
	const n = 1 << 16
	tp := topo()
	a, b := New(tp), New(tp)
	var hits, phase [2]int
	same := 0
	for i := 0; i < n; i++ {
		wa, wb := a.SampleCS(), b.SampleCS()
		if wa != 0 && wa != csSampleEvery {
			t.Fatalf("draw returned weight %d", wa)
		}
		if (wa != 0) == (wb != 0) {
			same++
		}
		if wa != 0 {
			hits[0]++
			phase[i%2]++
		}
		if wb != 0 {
			hits[1]++
		}
	}
	// Binomial(n, p): five standard deviations either side of the mean.
	within := func(got, trials int) bool {
		p := 1.0 / csSampleEvery
		mean, sd := float64(trials)*p, math.Sqrt(float64(trials)*p*(1-p))
		return math.Abs(float64(got)-mean) <= 5*sd
	}
	if !within(hits[0], n) || !within(hits[1], n) {
		t.Errorf("hits %v of %d draws, want about 1 in %d", hits, n, csSampleEvery)
	}
	if !within(phase[0], n/2) || !within(phase[1], n/2) {
		t.Errorf("hits by phase %v of %d draws each, want about 1 in %d on both", phase, n/2, csSampleEvery)
	}
	if same == n {
		t.Error("two tasks drew the same sequence")
	}
}

func TestVCPUFields(t *testing.T) {
	tk := New(topo())
	tk.SetQuota(12345)
	tk.SetPreempted(true)
	if tk.Quota() != 12345 || !tk.Preempted() {
		t.Error("vCPU fields lost")
	}
	tk.SetPreempted(false)
	if tk.Preempted() {
		t.Error("preempted flag stuck")
	}
}

func TestWeight(t *testing.T) {
	tk := New(topo())
	if tk.Weight() != 1 {
		t.Errorf("default weight = %d", tk.Weight())
	}
	tk.SetWeight(8)
	if tk.Weight() != 8 {
		t.Error("weight lost")
	}
}

func TestString(t *testing.T) {
	tk := NewOnCPU(topo(), 5)
	s := tk.String()
	if s == "" {
		t.Error("empty String()")
	}
}
