package profile

import (
	"math"
	"strings"
	"testing"
)

func TestBucketUpperBound(t *testing.T) {
	cases := []struct {
		bucket int
		want   int64
	}{
		{-1, 0},
		{0, 0},                          // bucket 0 holds only the value 0
		{1, 1},                          // [1,1]
		{2, 3},                          // [2,3]
		{10, 1023},                      // [512,1023]
		{NumBuckets - 2, 1<<32 - 1},     // last exact bucket
		{NumBuckets - 1, math.MaxInt64}, // clamp bucket
		{NumBuckets + 5, math.MaxInt64},
	}
	for _, c := range cases {
		if got := BucketUpperBound(c.bucket); got != c.want {
			t.Errorf("BucketUpperBound(%d) = %d, want %d", c.bucket, got, c.want)
		}
	}
}

func TestBucketUpperBoundMatchesRecord(t *testing.T) {
	// Every recorded sample must land in a bucket whose bound covers it
	// and (for non-clamp buckets) whose predecessor's bound does not.
	for _, ns := range []int64{0, 1, 2, 3, 4, 7, 8, 1000, 1 << 20, 1<<33 - 1, 1 << 33, math.MaxInt64} {
		var h Histogram
		h.Record(ns)
		buckets := h.Snapshot().Buckets
		b := -1
		for i, n := range buckets {
			if n == 1 {
				b = i
			}
		}
		if b < 0 {
			t.Fatalf("sample %d recorded in no bucket", ns)
		}
		if bound := BucketUpperBound(b); ns > bound {
			t.Errorf("sample %d in bucket %d exceeds bound %d", ns, b, bound)
		}
		if b > 0 && ns <= BucketUpperBound(b-1) {
			t.Errorf("sample %d in bucket %d fits bucket %d", ns, b, b-1)
		}
	}
}

func TestPercentileEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	for _, p := range []float64{0, 50, 99, 100} {
		if got := s.Percentile(p); got != 0 {
			t.Errorf("empty Percentile(%v) = %d, want 0", p, got)
		}
	}
}

func TestPercentileEdges(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Record(100) // bucket 7, bound 127
	}
	h.Record(100_000) // bucket 17, bound 131071
	s := h.Snapshot()

	// p=0 clamps to the first sample: the smallest non-empty bucket.
	if got := s.Percentile(0); got != 128 {
		t.Errorf("Percentile(0) = %d, want 128", got)
	}
	// p=100 covers the largest sample's bucket.
	if got := s.Percentile(100); got != 1<<17 {
		t.Errorf("Percentile(100) = %d, want %d", got, 1<<17)
	}
	// The reported bound is an upper bound for the true percentile.
	if got := s.Percentile(50); got < 100 {
		t.Errorf("Percentile(50) = %d, below true median 100", got)
	}
}

func TestPercentileZeroBucket(t *testing.T) {
	var h Histogram
	h.Record(0)
	h.Record(0)
	s := h.Snapshot()
	if got := s.Percentile(50); got != 0 {
		t.Errorf("all-zero Percentile(50) = %d, want 0", got)
	}
}

func TestPercentileClampBucketReportsMax(t *testing.T) {
	var h Histogram
	const huge = int64(1) << 40 // beyond the last exact bucket
	h.Record(huge)
	h.Record(huge + 12345)
	s := h.Snapshot()
	for _, p := range []float64{50, 99, 100} {
		if got := s.Percentile(p); got != huge+12345 {
			t.Errorf("clamp-bucket Percentile(%v) = %d, want recorded max %d", p, got, huge+12345)
		}
	}
}

func TestHistogramSum(t *testing.T) {
	var h Histogram
	h.Record(10)
	h.Record(20)
	h.Record(30)
	if got := h.Snapshot().Sum; got != 60 {
		t.Errorf("Sum = %d, want 60", got)
	}
}

func TestTraceRingDumpHeader(t *testing.T) {
	r := NewTraceRing(2) // 4 slots
	for i := 0; i < 6; i++ {
		r.Record(TraceRecord{NowNS: int64(i), Op: TraceAcquired})
	}
	var sb strings.Builder
	if err := r.Dump(&sb); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if !strings.HasPrefix(lines[0], "#") {
		t.Fatalf("dump missing header line: %q", lines[0])
	}
	if !strings.Contains(lines[0], "lost=2") {
		t.Errorf("header should report 2 lost records: %q", lines[0])
	}
	if len(lines) != 1+4 {
		t.Errorf("dump has %d lines, want header + 4 records", len(lines))
	}
}
