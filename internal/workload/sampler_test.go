package workload

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestSamplerDistribution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	s := NewSampler([]float64{1, 0, 3})
	counts := make([]int, 3)
	const n = 30000
	for i := 0; i < n; i++ {
		counts[s.Pick(rng)]++
	}
	if counts[1] != 0 {
		t.Errorf("zero-weight index picked %d times", counts[1])
	}
	if frac := float64(counts[2]) / n; math.Abs(frac-0.75) > 0.02 {
		t.Errorf("index 2 fraction = %v", frac)
	}
	if s.N() != 3 {
		t.Errorf("N = %d", s.N())
	}
}

func TestSamplerZeroTotalUniform(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	s := NewSampler([]float64{0, 0})
	c0 := 0
	for i := 0; i < 1000; i++ {
		if s.Pick(rng) == 0 {
			c0++
		}
	}
	if c0 < 400 || c0 > 600 {
		t.Errorf("uniform fallback skewed: %d", c0)
	}
}

func TestSamplerDeterministic(t *testing.T) {
	w := ZipfWeights(37, 1.1)
	a, b := NewSampler(w), NewSampler(w)
	ra := rand.New(rand.NewSource(42))
	rb := rand.New(rand.NewSource(42))
	for i := 0; i < 10000; i++ {
		if x, y := a.Pick(ra), b.Pick(rb); x != y {
			t.Fatalf("draw %d diverged: %d vs %d", i, x, y)
		}
	}
}

// Pick must consume exactly one uniform per draw — the engine's
// determinism contract depends on a fixed RNG consumption rate.
func TestSamplerConsumesOneDraw(t *testing.T) {
	s := NewSampler([]float64{2, 1, 5, 0.5})
	ra := rand.New(rand.NewSource(9))
	rb := rand.New(rand.NewSource(9))
	for i := 0; i < 1000; i++ {
		s.Pick(ra)
		rb.Float64()
	}
	if ra.Int63() != rb.Int63() {
		t.Error("Pick consumed a different number of draws than one Float64")
	}
}

func TestSamplerPanics(t *testing.T) {
	for _, c := range []struct {
		name string
		w    []float64
	}{
		{"empty", nil},
		{"negative", []float64{1, -1}},
		{"nan", []float64{1, math.NaN()}},
		{"inf", []float64{math.Inf(1), 1}},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s weights did not panic", c.name)
				}
			}()
			NewSampler(c.w)
		}()
	}
}

// Property: the alias table preserves the weight vector exactly —
// summing each column's retained and donated mass reconstructs the
// normalized weights, so the sampler is unbiased by construction, not
// just empirically.
func TestPropertySamplerMassConservation(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%20) + 1
		w := make([]float64, n)
		var total float64
		for i := range w {
			if rng.Intn(4) == 0 {
				w[i] = 0
			} else {
				w[i] = rng.Float64() * 10
			}
			total += w[i]
		}
		if total == 0 {
			w[0], total = 1, 1
		}
		s := NewSampler(w)
		mass := make([]float64, n)
		for i, c := range s.cols {
			mass[i] += c.prob
			mass[c.alias] += 1 - c.prob
		}
		for i := range w {
			if math.Abs(mass[i]/float64(n)-w[i]/total) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(12))}); err != nil {
		t.Error(err)
	}
}

// Property: Pick always returns an index in range, for adversarial
// uniform values near column boundaries.
func TestPropertySamplerInRange(t *testing.T) {
	f := func(seed int64, n8 uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		n := int(n8%15) + 1
		w := make([]float64, n)
		for i := range w {
			w[i] = rng.Float64()
		}
		s := NewSampler(w)
		for i := 0; i < 200; i++ {
			if got := s.Pick(rng); got < 0 || got >= n {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}

// refAliasTable is the two-array alias table the sampler kept before
// its columns became 16-byte entries, built the same way.
func refAliasTable(weights []float64) (prob []float64, alias []int32) {
	n := len(weights)
	prob, alias = make([]float64, n), make([]int32, n)
	var total float64
	for _, w := range weights {
		total += w
	}
	if total <= 0 {
		for i := range prob {
			prob[i], alias[i] = 1, int32(i)
		}
		return prob, alias
	}
	scaled := make([]float64, n)
	var small, large []int32
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l, g := small[len(small)-1], large[len(large)-1]
		small, large = small[:len(small)-1], large[:len(large)-1]
		prob[l], alias[l] = scaled[l], g
		scaled[g] = (scaled[g] + scaled[l]) - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	for _, i := range append(large, small...) {
		prob[i], alias[i] = 1, i
	}
	return prob, alias
}

// TestSamplerMatchesTwoArrayFormula checks that Pick maps every draw to
// the index the two-array formula gives, over several seeds and weight
// vectors, the all-zero vector among them.
func TestSamplerMatchesTwoArrayFormula(t *testing.T) {
	vectors := [][]float64{
		{1},
		{0, 0, 0},
		{1, 0, 3},
		{2, 1, 5, 0.5},
		ZipfWeights(1000, 1.0),
	}
	rng := rand.New(rand.NewSource(21))
	for n := 0; n < 8; n++ {
		w := make([]float64, 1+rng.Intn(50))
		for i := range w {
			if rng.Intn(3) > 0 {
				w[i] = rng.Float64() * 100
			}
		}
		vectors = append(vectors, w)
	}
	for vi, w := range vectors {
		s := NewSampler(w)
		prob, alias := refAliasTable(w)
		for seed := int64(1); seed <= 4; seed++ {
			a, b := rand.New(rand.NewSource(seed)), rand.New(rand.NewSource(seed))
			for k := 0; k < 2000; k++ {
				got := s.Pick(a)
				u := b.Float64() * float64(len(prob))
				want := int(u)
				if u-float64(want) >= prob[want] {
					want = int(alias[want])
				}
				if got != want {
					t.Fatalf("vector %d seed %d draw %d: Pick %d, two-array formula %d", vi, seed, k, got, want)
				}
			}
		}
	}
}

func BenchmarkSamplerPick(b *testing.B) {
	s := NewSampler(ZipfWeights(100000, 1.0))
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Pick(rng)
	}
}

func BenchmarkPickWeighted100K(b *testing.B) {
	w := ZipfWeights(100000, 1.0)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PickWeighted(w, rng)
	}
}
