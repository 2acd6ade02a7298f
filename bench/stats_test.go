package main

import (
	"math"
	"testing"
)

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want float64
	}{
		{nil, 0},
		{[]float64{5}, 5},
		{[]float64{3, 1, 2}, 2},
		{[]float64{4, 1, 3, 2}, 2.5},
		{[]float64{9, 1, 1, 1, 1, 1, 1, 100}, 1}, // one bad slice does not move it
	} {
		if got := median(c.in); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.in, got, c.want)
		}
	}
	in := []float64{3, 1, 2}
	median(in)
	if in[0] != 3 {
		t.Error("median reordered its input")
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    uint64
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99},
		{9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
		if c.want > 0 {
			if beyond := float64(c.n) * (100 - c.want) / 100; beyond < minBeyond-1e-6 {
				t.Errorf("p%g of %d samples has only %g samples beyond it", c.want, c.n, beyond)
			}
		}
	}
}

// TestHistFastMean: the mean of the fastest tenth stays on the fast part of
// a mixture while the host moves weight to the slow part, which is what the
// median does not do.
func TestHistFastMean(t *testing.T) {
	if got := new(hist).fastMean(); got != 0 {
		t.Errorf("fastMean of no samples = %g", got)
	}
	var u hist
	for v := int64(0); v < 10000; v++ {
		u.record(1000 + v) // uniform on [1000, 11000): the fastest tenth is [1000, 2000)
	}
	if got := u.fastMean(); math.Abs(got-1500) > 15 {
		t.Errorf("fastMean of a uniform distribution = %g, want 1500 within 1%%", got)
	}
	// rw_occ_gate's shape: a narrow part near 390 ns, a broad one from 520
	// to 840 ns, and the share of the narrow one falling from 0.6 to 0.2.
	mixture := func(narrowShare int) *hist {
		h := new(hist)
		for i := 0; i < 100000; i++ {
			if i%10 < narrowShare {
				h.record(int64(384 + i/10%16))
			} else {
				h.record(int64(520 + i/10%320))
			}
		}
		return h
	}
	quiet, busy := mixture(6), mixture(2)
	for _, h := range []*hist{quiet, busy} {
		if got := h.fastMean(); got < 384 || got >= 400 {
			t.Errorf("fastMean = %g, want it inside the narrow part [384,400)", got)
		}
	}
	if quiet.fastMean() == busy.fastMean() {
		t.Error("two different distributions report the same figure to the last digit")
	}
	if q, b := quiet.quantile(50), busy.quantile(50); b < 1.25*q {
		t.Errorf("medians %g and %g: the test no longer shows what fastMean is for", q, b)
	}
}

func TestHistBuckets(t *testing.T) {
	prev := -1
	for _, v := range []uint64{0, 1, 31, 32, 33, 63, 64, 65, 1000, 1 << 20, 1<<40 - 1} {
		i := histIndex(v)
		if i < prev {
			t.Errorf("histIndex(%d) = %d, below the index of a smaller value", v, i)
		}
		prev = i
		if lo, hi := histLower(i), histLower(i+1); v < lo || v >= hi {
			t.Errorf("value %d landed in bucket %d = [%d,%d)", v, i, lo, hi)
		}
		if lo, hi := histLower(i), histLower(i+1); v >= 64 && float64(hi-lo) > float64(lo)/32+1 {
			t.Errorf("bucket %d = [%d,%d) is wider than 1/32 of its value", i, lo, hi)
		}
	}
	if got := histIndex(1<<40 - 1); got != histBuckets-1 {
		t.Errorf("largest value lands in bucket %d of %d", got, histBuckets)
	}
}

func TestHistQuantile(t *testing.T) {
	var h hist
	for v := int64(1); v <= 10000; v++ {
		h.record(v * 10) // uniform on (0, 100000]
	}
	for _, p := range []float64{50, 90, 99, 99.9} {
		want := p / 100 * 100000
		if got := h.quantile(p); math.Abs(got-want)/want > 0.01 {
			t.Errorf("p%g = %g, want %g within 1%%", p, got, want)
		}
	}
	var a, b hist
	for v := int64(0); v < 1000; v++ {
		a.record(500 + v%7)
		b.record(500 + v%11)
	}
	if a.quantile(50) == b.quantile(50) {
		t.Error("two different distributions inside one bucket report the same median: no interpolation")
	}
	var sum hist
	sum.merge(&a)
	sum.merge(&b)
	if sum.n != 2000 {
		t.Errorf("merged count %d", sum.n)
	}
	h = hist{}
	h.record(-5)
	h.record(1 << 50)
	if h.n != 2 || h.counts[0] != 1 || h.counts[histBuckets-1] != 1 {
		t.Error("out-of-range samples were not clamped into the end buckets")
	}
}
