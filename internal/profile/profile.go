// Package profile is the dynamic lock profiler of §3.2. There is one
// recorder, Continuous, and two ways to attach it. Framework-wide, at a
// sampled rate, it rides every lock's hook chain in production. Per lock,
// unlike lockstat, which profiles every lock in the kernel at once, it is
// attached to exactly the lock instances the developer cares about — a
// single contended lock, a handful in one code path, or everything —
// through the same hook mechanism policies use, and so is installed and
// removed at runtime. At SampleRate 1 with a window longer than the run
// the recorder counts every event: its live window is the cumulative,
// exact profile.
package profile

import (
	"fmt"
	"math"
	"math/bits"
	"sync/atomic"
)

// histBuckets is the number of log2 latency buckets (ns to ~9.2s).
const histBuckets = 34

// NumBuckets is the number of log2 buckets in a Histogram, exported for
// exporters that render the raw distribution (internal/obs).
const NumBuckets = histBuckets

// BucketUpperBound returns the largest sample value bucket i can hold:
// bucket 0 holds only 0, bucket b holds [2^(b-1), 2^b-1], and the last
// bucket is the clamp bucket holding everything larger (its bound is
// MaxInt64).
func BucketUpperBound(i int) int64 {
	switch {
	case i <= 0:
		return 0
	case i >= histBuckets-1:
		return math.MaxInt64
	default:
		return (int64(1) << uint(i)) - 1
	}
}

// Histogram is a lock-free log2 latency histogram. The sample count is
// not kept as its own atomic — it is the sum of the buckets, computed by
// Snapshot — so the write path stays at two uncontended-width atomic adds
// plus a usually-read-only max update.
type Histogram struct {
	buckets [histBuckets]atomic.Int64
	sum     atomic.Int64
	max     atomic.Int64
}

// Record adds one sample (nanoseconds).
func (h *Histogram) Record(ns int64) {
	if ns < 0 {
		ns = 0
	}
	b := bits.Len64(uint64(ns)) // 0 for 0, else floor(log2)+1
	if b >= histBuckets {
		b = histBuckets - 1
	}
	h.buckets[b].Add(1)
	h.sum.Add(ns)
	for {
		m := h.max.Load()
		if ns <= m || h.max.CompareAndSwap(m, ns) {
			break
		}
	}
}

// HistogramSnapshot is a self-consistent copy of a Histogram. The live
// histogram's words are independent atomics, so a reader interleaving
// with Record can pair a sum that includes a sample with a bucket array
// that does not (or vice versa); Snapshot reconciles the pair so that
// derived statistics (Mean, Percentile) always lie within the bounds
// implied by the bucket counts. Snapshot is the histogram's only read
// path, so every statistic an export prints comes from one snapshot.
type HistogramSnapshot struct {
	Buckets [histBuckets]int64
	Count   int64
	Sum     int64
	Max     int64
}

// Snapshot captures a consistent view of the histogram. The sum is
// re-read after the bucket scan (with a bounded retry while writers are
// racing) and then clamped into the [Σ n_b·lower_b, Σ n_b·upper_b]
// envelope the captured buckets imply, with the recorded max as the
// effective upper bound of the top non-empty bucket. Under concurrent
// Record the snapshot may trail the live histogram by in-flight
// samples, but it is never internally torn: Mean() of a snapshot is
// always within the value bounds of its own buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	sum := h.sum.Load()
	for attempt := 0; ; attempt++ {
		s.Count = 0
		for b := 0; b < histBuckets; b++ {
			n := h.buckets[b].Load()
			s.Buckets[b] = n
			s.Count += n
		}
		s.Max = h.max.Load()
		again := h.sum.Load()
		if again == sum || attempt >= 3 {
			s.Sum = again
			break
		}
		sum = again
	}
	s.clampSum()
	return s
}

// clampSum forces Sum into the envelope the buckets allow. A sample in
// bucket b is at least bucketLower(b) and at most min(upper bound, Max);
// Max can itself lag a concurrently recorded sample, so the per-bucket
// floor still wins when Max reads below it.
func (s *HistogramSnapshot) clampSum() {
	var lo, hi int64
	for b, n := range s.Buckets {
		if n == 0 {
			continue
		}
		lower := bucketLower(b)
		upper := BucketUpperBound(b)
		if s.Max < upper {
			upper = s.Max
		}
		if upper < lower {
			upper = lower
		}
		lo = satAdd(lo, satMul(n, lower))
		hi = satAdd(hi, satMul(n, upper))
	}
	if s.Sum < lo {
		s.Sum = lo
	}
	if s.Sum > hi {
		s.Sum = hi
	}
}

// bucketLower is the smallest sample value bucket b can hold.
func bucketLower(b int) int64 {
	if b <= 0 {
		return 0
	}
	return int64(1) << uint(b-1)
}

// satAdd / satMul are int64 saturating arithmetic over non-negative
// operands for the clamp bounds (the top bucket envelope can overflow a
// plain multiply).
func satAdd(a, b int64) int64 {
	c := a + b
	if c < 0 {
		return math.MaxInt64
	}
	return c
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	c := a * b
	if c/a != b || c < 0 {
		return math.MaxInt64
	}
	return c
}

// Mean returns the mean sample of the snapshot, or 0 with no samples.
func (s *HistogramSnapshot) Mean() int64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / s.Count
}

// Percentile returns an upper bound for the p-th percentile (p in
// [0,100]) at log2 resolution. Edge cases: an empty snapshot reports 0;
// p <= 0 reports the bound of the smallest non-empty bucket; when the
// target lands in the final clamp bucket the recorded Max is returned,
// since the bucket's nominal bound (MaxInt64) carries no information.
func (s *HistogramSnapshot) Percentile(p float64) int64 {
	if s.Count == 0 {
		return 0
	}
	target := int64(float64(s.Count) * p / 100.0)
	if target < 1 {
		target = 1
	}
	var seen int64
	for b := 0; b < histBuckets; b++ {
		seen += s.Buckets[b]
		if seen >= target {
			if b == 0 {
				return 0
			}
			if b == histBuckets-1 {
				return s.Max // clamp bucket: bound is meaningless
			}
			return 1 << b // exclusive upper bound of bucket
		}
	}
	return s.Max
}

func fmtNS(ns int64) string {
	switch {
	case ns >= 1_000_000_000:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	case ns >= 1_000_000:
		return fmt.Sprintf("%.2fms", float64(ns)/1e6)
	case ns >= 1_000:
		return fmt.Sprintf("%.2fµs", float64(ns)/1e3)
	default:
		return fmt.Sprintf("%dns", ns)
	}
}
