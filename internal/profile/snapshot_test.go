package profile

import (
	"math"
	"sync"
	"sync/atomic"
	"testing"
)

func TestHistogramSnapshotBasics(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	if s.Count != 0 || s.Sum != 0 || s.Max != 0 || s.Mean() != 0 || s.Percentile(99) != 0 {
		t.Fatal("empty snapshot not zero")
	}
	for _, v := range []int64{100, 200, 300, 400} {
		h.Record(v)
	}
	s = h.Snapshot()
	if s.Count != 4 || s.Sum != 1000 || s.Max != 400 {
		t.Fatalf("snapshot = %+v", s)
	}
	if s.Mean() != 250 {
		t.Errorf("Mean = %d", s.Mean())
	}
	if got := s.Percentile(99); got != 1<<9 {
		t.Errorf("p99 = %d, want %d", got, 1<<9)
	}
}

func TestHistogramSnapshotClampEnvelope(t *testing.T) {
	// A hand-built torn snapshot: buckets say two samples in [512,1023]
	// but Sum was read before either sample's add landed.
	s := HistogramSnapshot{Count: 2, Sum: 0, Max: 1000}
	s.Buckets[10] = 2 // samples in [512, 1023]
	s.clampSum()
	if s.Sum != 2*512 {
		t.Errorf("Sum clamped to %d, want %d", s.Sum, 2*512)
	}
	// And the reverse: Sum includes samples the bucket scan missed.
	s = HistogramSnapshot{Count: 1, Sum: math.MaxInt64, Max: 1000}
	s.Buckets[10] = 1
	s.clampSum()
	if s.Sum != 1000 {
		t.Errorf("Sum clamped to %d, want 1000 (Max caps the bucket bound)", s.Sum)
	}
	// Stale Max below the bucket floor: the floor wins.
	s = HistogramSnapshot{Count: 1, Sum: 0, Max: 3}
	s.Buckets[10] = 1
	s.clampSum()
	if s.Sum != 512 {
		t.Errorf("Sum clamped to %d, want 512", s.Sum)
	}
}

func TestHistogramSnapshotSaturation(t *testing.T) {
	var h Histogram
	h.Record(math.MaxInt64)
	h.Record(math.MaxInt64)
	s := h.Snapshot()
	if s.Mean() < 0 || s.Sum < 0 {
		t.Fatalf("snapshot overflowed: %+v", s)
	}
}

// TestHistogramSnapshotConsistentUnderRecord pins the satellite fix:
// the old Mean()/Percentile() read sum, count, and buckets as separate
// atomics and could pair a sum including an in-flight sample with a
// count that missed it. With every recorded value equal, any torn pair
// pushes the mean outside the value's bucket bounds; the snapshot clamp
// must keep it inside.
func TestHistogramSnapshotConsistentUnderRecord(t *testing.T) {
	const val = 1000 // bucket [512, 1023]
	var h Histogram
	var stop atomic.Bool
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				h.Record(val)
			}
		}()
	}
	for i := 0; i < 5000; i++ {
		s := h.Snapshot()
		if s.Count == 0 {
			continue
		}
		m := s.Mean()
		if m < 512 || m > val {
			t.Errorf("iteration %d: mean %d outside [512, %d] (count=%d sum=%d max=%d)",
				i, m, val, s.Count, s.Sum, s.Max)
			break
		}
		if p := s.Percentile(99); p != 1<<10 {
			t.Errorf("iteration %d: p99 %d, want %d", i, p, 1<<10)
			break
		}
	}
	stop.Store(true)
	wg.Wait()
}
