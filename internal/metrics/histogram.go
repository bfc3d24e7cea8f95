package metrics

import (
	"fmt"
	"math"
	"slices"
)

// Histogram is a fixed-bucket latency histogram on power-of-two
// bounds (DefaultLatencyBounds), built for deterministic aggregation:
// the quantile estimates derive only from integer bucket counts and the
// exact min/max, so they are invariant under any permutation of the
// observations and under any order of Merge calls — two runs that
// observe the same multiset of durations report bit-identical
// percentiles. The sum uses Neumaier compensation, so Mean stays
// accurate across the ~12 decades the buckets span.
//
// The zero value is not ready to use; construct with NewHistogram, or
// Init one in place.
type Histogram struct {
	// Observe's scalars lead, so they share a cache line.
	count uint64
	sum   float64
	comp  float64 // Neumaier compensation term
	min   float64
	max   float64

	counts [numBuckets]uint64 // counts[i] is bound i's bucket; counts[numBuckets-1] is the overflow bucket
}

// DefaultLatencyBounds returns the bucket upper bounds every histogram
// uses: powers of two from 2^-10 s (~1 ms, well under one simulated
// tick) to 2^20 s (~12 days, beyond any experiment horizon). Durations
// in the simulator are multiples of the scheduling tick, so "tick
// buckets" at power-of-two spacing give ~1 significant figure of
// resolution at every scale with 31 buckets.
func DefaultLatencyBounds() []float64 {
	bounds := make([]float64, 0, maxExp-minExp+1)
	for e := minExp; e <= maxExp; e++ {
		bounds = append(bounds, math.Ldexp(1, e))
	}
	return bounds
}

// The bounds run from 2^minExp to 2^maxExp; with the overflow bucket
// that is numBuckets counts, kept in the struct so Observe on one of
// thousands of per-app histograms touches one allocation, not two.
const (
	minExp     = -10
	maxExp     = 20
	numBuckets = maxExp - minExp + 2
)

// latencyBounds is built once and shared by every histogram, so
// Quantile on thousands of per-app histograms does not pull a copy each
// into the cache.
var latencyBounds = DefaultLatencyBounds()

// NewHistogram creates an empty histogram; values above the last bound
// land in the overflow bucket.
//
// It stays out of line, so its histogram is one heap allocation even
// where a caller drops the result, which is what
// TestHistogramDefaultAllocs counts.
//
//go:noinline
func NewHistogram() *Histogram {
	h := new(Histogram)
	h.Init()
	return h
}

// Init sets h up in place as an empty histogram, as NewHistogram does,
// so a caller can keep histograms inside its own records
// (Registry.RegisterHistogram publishes one).
func (h *Histogram) Init() {
	*h = Histogram{min: math.Inf(1), max: math.Inf(-1)}
}

// Observe records one duration. Negative, NaN, and infinite values are
// rejected with a panic: a span layer that produces them has matched
// lifecycle events incorrectly, and recording them would silently
// poison every percentile downstream.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		panic(fmt.Sprintf("metrics: Histogram.Observe(%v): duration must be finite and non-negative", v))
	}
	h.counts[bucketPow2(v)]++
	h.count++
	h.add(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// bucketPow2 returns the index of the first bound ≥ v, or numBuckets-1
// for the overflow bucket. Bound i is 2^(minExp+i), so the first bound
// ≥ v is 2^⌈log2 v⌉, read from v's exponent bits and rounded up when any
// mantissa bit is set. Zero and subnormals clamp to the first bucket,
// values above the last bound to the overflow bucket. v must be finite
// and non-negative.
func bucketPow2(v float64) int {
	b := math.Float64bits(v)
	e := int(b>>52) - 1023 // v is in [2^e, 2^(e+1))
	if b&(1<<52-1) != 0 {
		e++
	}
	return min(max(e-minExp, 0), numBuckets-1)
}

// add accumulates v into the compensated sum (Neumaier's variant of
// Kahan summation, correct even when the addend exceeds the sum).
func (h *Histogram) add(v float64) {
	t := h.sum + v
	if math.Abs(h.sum) >= math.Abs(v) {
		h.comp += (h.sum - t) + v
	} else {
		h.comp += (v - t) + h.sum
	}
	h.sum = t
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the compensated sum of all observations.
func (h *Histogram) Sum() float64 { return h.sum + h.comp }

// Mean returns the arithmetic mean, or 0 for an empty histogram.
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return h.Sum() / float64(h.count)
}

// Min returns the smallest observation, or 0 for an empty histogram.
func (h *Histogram) Min() float64 {
	if h.count == 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation, or 0 for an empty histogram.
func (h *Histogram) Max() float64 { // exact, not a bucket bound
	if h.count == 0 {
		return 0
	}
	return h.max
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by locating the bucket
// containing the target rank in the cumulative counts and interpolating
// linearly inside it. The estimate is clamped to the exact [min, max],
// so q=0 and q=1 are exact and a single-bucket histogram degrades
// gracefully. Returns 0 for an empty histogram.
func (h *Histogram) Quantile(q float64) float64 {
	if q < 0 || q > 1 {
		panic(fmt.Sprintf("metrics: quantile %v out of [0,1]", q))
	}
	if h.count == 0 {
		return 0
	}
	target := q * float64(h.count)
	if target < 1 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts[:] {
		if c == 0 {
			continue
		}
		prev := cum
		cum += c
		if float64(cum) < target {
			continue
		}
		lo := 0.0
		if i > 0 {
			lo = latencyBounds[i-1]
		}
		hi := h.max
		if i < len(latencyBounds) && latencyBounds[i] < hi {
			hi = latencyBounds[i]
		}
		frac := (target - float64(prev)) / float64(c)
		v := lo + frac*(hi-lo)
		return math.Min(math.Max(v, h.min), h.max)
	}
	return h.max // unreachable unless counts desynced from count
}

// Buckets returns copies of the bucket upper bounds and counts (the
// final count is the overflow bucket, whose bound is +Inf).
func (h *Histogram) Buckets() (bounds []float64, counts []uint64) {
	return slices.Clone(latencyBounds), slices.Clone(h.counts[:])
}

// Merge adds o's observations into h. Merge order does not affect
// counts, min/max, or quantiles. Every histogram shares one bucket
// scheme, so Merge cannot fail; the error result is always nil.
func (h *Histogram) Merge(o *Histogram) error {
	for i, c := range o.counts[:] {
		h.counts[i] += c
	}
	h.count += o.count
	h.add(o.Sum())
	if o.count > 0 {
		if o.min < h.min {
			h.min = o.min
		}
		if o.max > h.max {
			h.max = o.max
		}
	}
	return nil
}

// Clone returns an independent copy, for merge-without-mutation
// aggregation (e.g. combining per-priority histograms into a total).
func (h *Histogram) Clone() *Histogram {
	c := *h
	return &c
}
