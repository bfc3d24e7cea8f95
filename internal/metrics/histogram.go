package metrics

import (
	"fmt"
	"math"
	"slices"
)

// Histogram is a fixed-bucket latency histogram with log-spaced bounds,
// built for deterministic aggregation: the quantile estimates derive
// only from integer bucket counts and the exact min/max, so they are
// invariant under any permutation of the observations and under any
// order of Merge calls — two runs that observe the same multiset of
// durations report bit-identical percentiles. The sum uses Neumaier
// compensation, so Mean stays accurate across the ~12 decades the
// default bucket scheme spans.
//
// The zero value is not ready to use; construct with NewHistogram, or
// Init one in place.
type Histogram struct {
	// Observe's scalars lead, so they share a cache line.
	pow2  bool // bounds are the default scheme: bucketPow2 finds the bucket in pow2c
	count uint64
	sum   float64
	comp  float64 // Neumaier compensation term
	min   float64
	max   float64

	bounds []float64              // ascending bucket upper bounds, never written (may be shared); one extra overflow bucket follows
	counts []uint64               // custom bounds only: len(bounds)+1; counts[len(bounds)] is the overflow bucket
	pow2c  [defaultBuckets]uint64 // default scheme only: the counts, in the struct
}

// DefaultLatencyBounds returns the bucket scheme used for control-plane
// latency spans: powers of two from 2^-10 s (~1 ms, well under one
// simulated tick) to 2^20 s (~12 days, beyond any experiment horizon).
// Durations in the simulator are multiples of the scheduling tick, so
// "tick buckets" at power-of-two spacing give ~1 significant figure of
// resolution at every scale with 31 buckets.
func DefaultLatencyBounds() []float64 {
	bounds := make([]float64, 0, defaultMaxExp-defaultMinExp+1)
	for e := defaultMinExp; e <= defaultMaxExp; e++ {
		bounds = append(bounds, math.Ldexp(1, e))
	}
	return bounds
}

// The default scheme's bounds run from 2^defaultMinExp to 2^defaultMaxExp;
// with the overflow bucket that is defaultBuckets counts. A histogram on
// that scheme keeps them in the struct (pow2c), so Observe on one of
// thousands of per-app histograms touches one allocation, not two.
const (
	defaultMinExp  = -10
	defaultMaxExp  = 20
	defaultBuckets = defaultMaxExp - defaultMinExp + 2
)

// defaultBounds is built once and shared by every histogram on the
// default scheme, so thousands of per-app histograms do not each pull
// their own copy of the bounds into the cache on Observe.
var defaultBounds = DefaultLatencyBounds()

// NewHistogram creates a histogram with the given ascending bucket
// upper bounds; values above the last bound land in an implicit
// overflow bucket. A nil or empty bounds slice selects
// DefaultLatencyBounds. Bounds must be finite and strictly ascending.
//
// It stays out of line, so its histogram is one heap allocation even
// where a caller drops the result, which is what
// TestHistogramDefaultAllocs counts.
//
//go:noinline
func NewHistogram(bounds []float64) *Histogram {
	h := new(Histogram)
	h.Init(bounds)
	return h
}

// Init sets h up in place as an empty histogram on bounds, as
// NewHistogram does, so a caller can keep histograms inside its own
// records (Registry.RegisterHistogram publishes one).
func (h *Histogram) Init(bounds []float64) {
	if len(bounds) == 0 {
		bounds = defaultBounds
	} else {
		bounds = slices.Clone(bounds)
	}
	for i, b := range bounds {
		if math.IsNaN(b) || math.IsInf(b, 0) {
			panic(fmt.Sprintf("metrics: histogram bound %d is not finite: %v", i, b))
		}
		if i > 0 && b <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending: %v after %v", b, bounds[i-1]))
		}
	}
	*h = Histogram{
		bounds: bounds,
		pow2:   slices.Equal(bounds, defaultBounds),
		min:    math.Inf(1),
		max:    math.Inf(-1),
	}
	if !h.pow2 {
		h.counts = make([]uint64, len(bounds)+1)
	}
}

// buckets returns the bucket counts: the in-struct array on the default
// scheme, the counts slice otherwise.
func (h *Histogram) buckets() []uint64 {
	if h.pow2 {
		return h.pow2c[:]
	}
	return h.counts
}

// Observe records one duration. Negative, NaN, and infinite values are
// rejected with a panic: a span layer that produces them has matched
// lifecycle events incorrectly, and recording them would silently
// poison every percentile downstream.
func (h *Histogram) Observe(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		panic(fmt.Sprintf("metrics: Histogram.Observe(%v): duration must be finite and non-negative", v))
	}
	if h.pow2 {
		h.pow2c[bucketPow2(v)]++
	} else {
		h.counts[h.bucket(v)]++
	}
	h.count++
	h.add(v)
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// bucket returns the index of the first bound ≥ v, or len(bounds) for
// the overflow bucket. It is a lower-bound binary search with a plain
// `<`: v and every bound are finite, so slices.BinarySearch's NaN-aware
// comparison would only cost time.
func (h *Histogram) bucket(v float64) int {
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if h.bounds[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// bucketPow2 is bucket for the default scheme, whose bound i is
// 2^(defaultMinExp+i): the first bound ≥ v is 2^⌈log2 v⌉, read from v's
// exponent bits and rounded up when any mantissa bit is set. Zero and
// subnormals clamp to the first bucket, values above the last bound to
// the overflow bucket. v must be finite and non-negative.
func bucketPow2(v float64) int {
	b := math.Float64bits(v)
	e := int(b>>52) - 1023 // v is in [2^e, 2^(e+1))
	if b&(1<<52-1) != 0 {
		e++
	}
	return min(max(e-defaultMinExp, 0), defaultMaxExp-defaultMinExp+1)
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
	for i, c := range h.buckets() {
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
			lo = h.bounds[i-1]
		}
		hi := h.max
		if i < len(h.bounds) && h.bounds[i] < hi {
			hi = h.bounds[i]
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
	return slices.Clone(h.bounds), slices.Clone(h.buckets())
}

// Merge adds o's observations into h. Both histograms must share the
// exact bucket scheme; merging mismatched schemes would silently shift
// every percentile, so that is an error. Merge order does not affect
// counts, min/max, or quantiles.
func (h *Histogram) Merge(o *Histogram) error {
	if !slices.Equal(h.bounds, o.bounds) {
		return fmt.Errorf("metrics: merging histograms with different bucket schemes (%d vs %d bounds)",
			len(h.bounds), len(o.bounds))
	}
	counts := h.buckets()
	for i, c := range o.buckets() {
		counts[i] += c
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
	c.bounds = slices.Clone(h.bounds)
	c.counts = slices.Clone(h.counts)
	return &c
}
