package main

import (
	"math"
	"math/bits"
	"sort"
)

// median returns the median of vs (mean of the middle two when even).
// It does not modify vs; an empty input gives 0.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// reportedPercentiles are the tail percentiles a latency report may name.
var reportedPercentiles = []float64{50, 90, 99, 99.9, 99.99}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported: fewer and the figure is one or two outliers, not a tail.
const minBeyond = 10

// highestPercentile returns the highest of reportedPercentiles that n
// samples support (at least minBeyond samples beyond it), or 0 when n
// does not even support the median.
func highestPercentile(n uint64) float64 {
	best := 0.0
	for _, p := range reportedPercentiles {
		if float64(n)*(100-p)/100 >= minBeyond-1e-6 { // 10000 × 0.1% is 9.9999… in floating point
			best = p
		}
	}
	return best
}

// hist is a log-linear latency histogram: 2^histSub buckets per power of
// two, so a bucket is at most 1/32 of its value wide. It costs one array
// store per sample and a fixed 4.5 KiB, which keeps a 16 s run from
// growing the heap it is also measuring.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSub     = 5
	histMaxBits = 40 // samples are clamped below 2^40 ns (18 minutes)
	histBuckets = (histMaxBits - histSub + 1) << histSub
)

func histIndex(v uint64) int {
	if v < 1<<histSub {
		return int(v)
	}
	exp := bits.Len64(v) - 1 - histSub
	return (exp+1)<<histSub | int(v>>uint(exp))&(1<<histSub-1)
}

// histLower is the smallest value that lands in bucket i.
func histLower(i int) uint64 {
	if i < 1<<histSub {
		return uint64(i)
	}
	exp := i>>histSub - 1
	return uint64(1<<histSub|i&(1<<histSub-1)) << uint(exp)
}

func (h *hist) record(v int64) {
	if v < 0 {
		v = 0
	} else if v >= 1<<histMaxBits {
		v = 1<<histMaxBits - 1
	}
	h.counts[histIndex(uint64(v))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the p-th percentile, interpolated by rank inside the
// bucket that holds it, so two runs report different digits unless they
// saw the same distribution.
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := p / 100 * float64(h.n)
	var below float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if below+float64(c) >= rank {
			lo, hi := float64(histLower(i)), float64(histLower(i+1))
			return lo + (hi-lo)*math.Max(rank-below, 0)/float64(c)
		}
		below += float64(c)
	}
	return float64(histLower(histBuckets))
}

// fastShare is the share of the samples fastMean averages.
const fastShare = 0.1

// fastMean returns the mean of the fastest tenth of the samples, the last
// bucket it needs counted only as far as the tenth reaches and every bucket
// taken as evenly filled.
func (h *hist) fastMean() float64 {
	if h.n == 0 {
		return 0
	}
	need := float64(h.n) * fastShare
	var taken, sum float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		lo, hi := float64(histLower(i)), float64(histLower(i+1))
		use := math.Min(float64(c), need-taken)
		end := lo + (hi-lo)*use/float64(c) // the part of the bucket the samples used fill
		sum += use * (lo + end) / 2
		if taken += use; taken >= need {
			break
		}
	}
	return sum / need
}
