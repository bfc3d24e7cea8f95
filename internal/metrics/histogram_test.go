package metrics

import (
	"math"
	"math/rand"
	"slices"
	"testing"
)

func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Count() != 0 || h.Sum() != 0 || h.Mean() != 0 {
		t.Fatalf("empty histogram: count=%d sum=%v mean=%v", h.Count(), h.Sum(), h.Mean())
	}
	if h.Min() != 0 || h.Max() != 0 {
		t.Fatalf("empty histogram min/max: %v/%v", h.Min(), h.Max())
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := h.Quantile(q); v != 0 {
			t.Fatalf("empty histogram quantile(%v) = %v", q, v)
		}
	}
}

func TestHistogramSingleSample(t *testing.T) {
	h := NewHistogram()
	h.Observe(3.5)
	if h.Count() != 1 || h.Sum() != 3.5 {
		t.Fatalf("count=%d sum=%v", h.Count(), h.Sum())
	}
	for _, q := range []float64{0, 0.5, 0.9, 0.99, 1} {
		if v := h.Quantile(q); v != 3.5 {
			t.Fatalf("quantile(%v) = %v, want 3.5", q, v)
		}
	}
	if h.Min() != 3.5 || h.Max() != 3.5 {
		t.Fatalf("min/max: %v/%v", h.Min(), h.Max())
	}
}

func TestHistogramAllEqual(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 1000; i++ {
		h.Observe(7)
	}
	for _, q := range []float64{0, 0.5, 0.99, 1} {
		if v := h.Quantile(q); v != 7 {
			t.Fatalf("quantile(%v) = %v, want 7", q, v)
		}
	}
	if h.Sum() != 7000 {
		t.Fatalf("sum = %v, want 7000", h.Sum())
	}
}

func TestHistogramZeroDuration(t *testing.T) {
	// Same-tick lifecycles produce zero-length spans; they must count.
	h := NewHistogram()
	h.Observe(0)
	h.Observe(0)
	if h.Count() != 2 || h.Max() != 0 || h.Quantile(0.5) != 0 {
		t.Fatalf("zero durations: count=%d max=%v p50=%v", h.Count(), h.Max(), h.Quantile(0.5))
	}
}

// bucket is the reference for bucketPow2: a lower-bound binary search
// for the first bound ≥ v, or len(latencyBounds) for the overflow
// bucket.
func bucket(v float64) int {
	lo, hi := 0, len(latencyBounds)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if latencyBounds[m] < v {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

// TestHistogramPow2BucketMatchesSearch checks the exponent-indexed
// bucket against the binary search, bit for bit, and the search against
// slices.BinarySearch: on every power of two in the float64 range and
// both its neighbours, on 0 and subnormals, and on 1M random
// non-negative finite values (random bit patterns, which cover every
// exponent, and values spread over the bounds' own range).
func TestHistogramPow2BucketMatchesSearch(t *testing.T) {
	check := func(v float64) {
		if v < 0 || math.IsInf(v, 0) || math.IsNaN(v) {
			return
		}
		want := bucket(v)
		if ref, _ := slices.BinarySearch(latencyBounds, v); want != ref {
			t.Fatalf("bucket(%v) = %d, slices.BinarySearch = %d", v, want, ref)
		}
		if got := bucketPow2(v); got != want {
			t.Fatalf("bucketPow2(%v) = %d, binary search = %d", v, got, want)
		}
	}
	for e := -1074; e <= 1023; e++ {
		x := math.Ldexp(1, e)
		check(x)
		check(math.Nextafter(x, 0))
		check(math.Nextafter(x, math.Inf(1)))
	}
	check(0)
	check(math.SmallestNonzeroFloat64)
	check(math.Float64frombits(1<<52 - 1)) // largest subnormal
	check(math.MaxFloat64)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		check(math.Float64frombits(rng.Uint64() &^ (1 << 63)))
		check(math.Ldexp(rng.Float64(), rng.Intn(40)-15))
	}
}

func TestHistogramRejectsBadValues(t *testing.T) {
	for _, v := range []float64{-1, math.NaN(), math.Inf(1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Observe(%v) did not panic", v)
				}
			}()
			NewHistogram().Observe(v)
		}()
	}
}

func TestHistogramQuantilesMonotone(t *testing.T) {
	h := NewHistogram()
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 5000; i++ {
		h.Observe(rng.ExpFloat64() * 100)
	}
	prev := math.Inf(-1)
	for q := 0.0; q <= 1.0; q += 0.01 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile not monotone: q=%v gives %v after %v", q, v, prev)
		}
		if v < h.Min() || v > h.Max() {
			t.Fatalf("quantile(%v)=%v outside [min,max]=[%v,%v]", q, v, h.Min(), h.Max())
		}
		prev = v
	}
}

func TestHistogramQuantileAccuracy(t *testing.T) {
	// With power-of-two buckets the interpolated estimate must stay
	// within one bucket width (a factor of 2) of the exact quantile.
	h := NewHistogram()
	var exact []float64
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20000; i++ {
		v := rng.ExpFloat64() * 50
		h.Observe(v)
		exact = append(exact, v)
	}
	var s Sample
	for _, v := range exact {
		s.Observe(v)
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		got, want := h.Quantile(q), s.Quantile(q)
		if got < want/2 || got > want*2 {
			t.Errorf("quantile(%v) = %v, exact %v: off by more than a bucket", q, got, want)
		}
	}
}

// TestHistogramPermutationInvariant is the determinism contract: the
// same multiset of observations, inserted in any order, yields
// bit-identical counts, min/max, and quantiles. Sums are checked with
// exactly representable values (multiples of 0.25), where even the
// floating-point sum is order-independent.
func TestHistogramPermutationInvariant(t *testing.T) {
	base := make([]float64, 0, 2000)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 2000; i++ {
		base = append(base, float64(rng.Intn(1<<14))*0.25)
	}
	build := func(vals []float64) *Histogram {
		h := NewHistogram()
		for _, v := range vals {
			h.Observe(v)
		}
		return h
	}
	ref := build(base)
	for trial := 0; trial < 5; trial++ {
		perm := append([]float64(nil), base...)
		rng.Shuffle(len(perm), func(i, j int) { perm[i], perm[j] = perm[j], perm[i] })
		h := build(perm)
		if h.Count() != ref.Count() || h.Min() != ref.Min() || h.Max() != ref.Max() {
			t.Fatalf("trial %d: count/min/max diverged", trial)
		}
		if h.Sum() != ref.Sum() {
			t.Fatalf("trial %d: sum %v != %v on representable values", trial, h.Sum(), ref.Sum())
		}
		_, rc := ref.Buckets()
		_, hc := h.Buckets()
		for i := range rc {
			if rc[i] != hc[i] {
				t.Fatalf("trial %d: bucket %d count %d != %d", trial, i, hc[i], rc[i])
			}
		}
		for q := 0.0; q <= 1.0; q += 0.05 {
			if h.Quantile(q) != ref.Quantile(q) {
				t.Fatalf("trial %d: quantile(%v) %v != %v", trial, q, h.Quantile(q), ref.Quantile(q))
			}
		}
	}
}

// TestHistogramMergeDeterminism: merging shards in any order equals
// observing everything in one histogram, for counts and quantiles, and
// for sums on exactly representable values.
func TestHistogramMergeDeterminism(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	shards := make([]*Histogram, 8)
	all := NewHistogram()
	for i := range shards {
		shards[i] = NewHistogram()
		for j := 0; j < 500; j++ {
			v := float64(rng.Intn(1<<12)) * 0.25
			shards[i].Observe(v)
			all.Observe(v)
		}
	}
	mergeIn := func(order []int) *Histogram {
		m := NewHistogram()
		for _, i := range order {
			if err := m.Merge(shards[i]); err != nil {
				t.Fatal(err)
			}
		}
		return m
	}
	fwd := mergeIn([]int{0, 1, 2, 3, 4, 5, 6, 7})
	rev := mergeIn([]int{7, 6, 5, 4, 3, 2, 1, 0})
	for _, m := range []*Histogram{fwd, rev} {
		if m.Count() != all.Count() || m.Min() != all.Min() || m.Max() != all.Max() {
			t.Fatalf("merged count/min/max != direct")
		}
		if m.Sum() != all.Sum() {
			t.Fatalf("merged sum %v != direct %v on representable values", m.Sum(), all.Sum())
		}
		for q := 0.0; q <= 1.0; q += 0.05 {
			if m.Quantile(q) != all.Quantile(q) {
				t.Fatalf("merged quantile(%v) %v != direct %v", q, m.Quantile(q), all.Quantile(q))
			}
		}
	}
	if fwd.Sum() != rev.Sum() {
		t.Fatalf("merge order changed sum: %v vs %v", fwd.Sum(), rev.Sum())
	}
}

// TestHistogramCloneIndependent: a clone shares no counts with its
// original. Observations into either one show in its own counts,
// quantiles and Buckets only.
func TestHistogramCloneIndependent(t *testing.T) {
	h := NewHistogram()
	h.Observe(0.75)
	c := h.Clone()
	for i := 0; i < 9; i++ {
		h.Observe(0.3)
		c.Observe(3)
	}
	hb, hc := h.Buckets()
	_, cc := c.Buckets()
	bucketOf := func(v float64) int { i, _ := slices.BinarySearch(hb, v); return i }
	want := func(obs map[float64]uint64) []uint64 {
		w := make([]uint64, len(hb)+1)
		for v, n := range obs {
			w[bucketOf(v)] += n
		}
		return w
	}
	if w := want(map[float64]uint64{0.75: 1, 0.3: 9}); !slices.Equal(hc, w) {
		t.Errorf("original counts %v, want %v", hc, w)
	}
	if w := want(map[float64]uint64{0.75: 1, 3: 9}); !slices.Equal(cc, w) {
		t.Errorf("clone counts %v, want %v", cc, w)
	}
	if h.Count() != 10 || c.Count() != 10 {
		t.Errorf("counts %d and %d, want 10 each", h.Count(), c.Count())
	}
	if h.Quantile(0.5) >= 0.5 || c.Quantile(0.5) <= 2 {
		t.Errorf("p50 %v (original) and %v (clone) show the other's observations",
			h.Quantile(0.5), c.Quantile(0.5))
	}
	if h.Max() != 0.75 || c.Min() != 0.75 || c.Max() != 3 {
		t.Errorf("original max %v, clone min/max %v/%v", h.Max(), c.Min(), c.Max())
	}
}

// TestHistogramMergeBuckets: merging adds bucket counts element-wise and
// equals observing everything in one histogram.
func TestHistogramMergeBuckets(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a, b, all := NewHistogram(), NewHistogram(), NewHistogram()
	for i := 0; i < 1000; i++ {
		v := math.Ldexp(rng.Float64(), rng.Intn(30)-12)
		if i%3 == 0 {
			a.Observe(v)
		} else {
			b.Observe(v)
		}
		all.Observe(v)
	}
	_, ac := a.Buckets()
	_, bc := b.Buckets()
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	bounds, got := a.Buckets()
	if _, want := all.Buckets(); !slices.Equal(got, want) {
		t.Fatalf("merged counts %v, direct %v", got, want)
	}
	for i := range got {
		if got[i] != ac[i]+bc[i] {
			t.Fatalf("merged bucket %d = %d, want %d+%d", i, got[i], ac[i], bc[i])
		}
	}
	if len(got) != len(bounds)+1 || a.Count() != all.Count() {
		t.Fatalf("%d counts for %d bounds, count %d want %d", len(got), len(bounds), a.Count(), all.Count())
	}
	for q := 0.0; q <= 1; q += 0.1 {
		if a.Quantile(q) != all.Quantile(q) {
			t.Fatalf("merged quantile(%v) %v != direct %v", q, a.Quantile(q), all.Quantile(q))
		}
	}
}

// TestHistogramDefaultAllocs: a histogram is one allocation (its counts
// are in the struct and its bounds shared), and Observe allocates
// nothing.
func TestHistogramDefaultAllocs(t *testing.T) {
	if n := testing.AllocsPerRun(100, func() { NewHistogram() }); n != 1 {
		t.Errorf("NewHistogram: %v allocations, want 1", n)
	}
	h := NewHistogram()
	if n := testing.AllocsPerRun(100, func() { h.Observe(1.5) }); n != 0 {
		t.Errorf("Observe: %v allocations, want 0", n)
	}
}

func TestRegistryKinds(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("a.count")
	if r.Counter("a.count") != c {
		t.Fatal("lazy counter not memoized")
	}
	r.Gauge("a.gauge")
	r.Histogram("a.hist")
	r.RegisterAvailability("a.avail", NewAvailability(0.95))
	want := []string{"a.avail", "a.count", "a.gauge", "a.hist"}
	got := r.Names()
	if len(got) != len(want) {
		t.Fatalf("names: %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("names[%d] = %q, want %q (sorted order)", i, got[i], want[i])
		}
	}
	var visited []string
	r.Each(func(name string, m any) { visited = append(visited, name) })
	if len(visited) != 4 {
		t.Fatalf("Each visited %v", visited)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("kind collision did not panic")
			}
		}()
		r.Gauge("a.count")
	}()
}
