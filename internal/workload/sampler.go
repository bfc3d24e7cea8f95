package workload

import (
	"fmt"
	"math"
	"math/rand"
)

// Sampler draws indices from a fixed weight vector in O(1) per draw via
// Vose's alias method. PickWeighted is an O(n) scan per draw — fine for
// a handful of applications, quadratic pain when a million-app request
// stream picks an app per arrival — while a Sampler pays O(n) once at
// construction and a single uniform draw per pick thereafter.
//
// Determinism: construction is a pure function of the weight vector
// (the small/large worklists are filled in ascending index order and
// popped LIFO), and Pick consumes exactly one rng.Float64() per draw,
// so identical seeds yield byte-identical index streams. Note the
// stream differs from PickWeighted's for the same seed — the two
// methods map uniforms to indices differently — so switching a caller
// re-pins any golden output derived from the draw sequence.
type Sampler struct {
	cols []column
}

// column is one alias-table column, 16 bytes, so a Pick reads its
// threshold and its alias from one cache line.
type column struct {
	prob  float64 // acceptance threshold in [0,1]
	alias int32   // the index that receives the rejected mass
}

// NewSampler builds the alias table for the (not necessarily
// normalized) weight vector. The validation contract is PickWeighted's:
// empty vectors, negative weights, and non-finite weights panic, naming
// the offending index. An all-zero vector degenerates to uniform, like
// PickWeighted's total <= 0 fallback.
func NewSampler(weights []float64) *Sampler {
	if len(weights) == 0 {
		panic("workload: NewSampler with empty weights")
	}
	var total float64
	for i, w := range weights {
		if w < 0 {
			panic(fmt.Sprintf("workload: negative weight %v at index %d", w, i))
		}
		if math.IsNaN(w) || math.IsInf(w, 0) {
			panic(fmt.Sprintf("workload: non-finite weight %v at index %d", w, i))
		}
		total += w
	}
	n := len(weights)
	s := &Sampler{cols: make([]column, n)}
	if total <= 0 {
		for i := range s.cols {
			s.cols[i] = column{prob: 1, alias: int32(i)}
		}
		return s
	}
	// Scale so the mean column mass is 1, then pair each under-full
	// ("small") column with an over-full ("large") donor. Worklists are
	// plain LIFO stacks filled in ascending index order: deterministic,
	// and the classic numerically robust formulation (the residue of a
	// donor is re-classified after every pairing).
	scaled := make([]float64, n)
	small := make([]int32, 0, n)
	large := make([]int32, 0, n)
	for i, w := range weights {
		scaled[i] = w * float64(n) / total
		if scaled[i] < 1 {
			small = append(small, int32(i))
		} else {
			large = append(large, int32(i))
		}
	}
	for len(small) > 0 && len(large) > 0 {
		l := small[len(small)-1]
		small = small[:len(small)-1]
		g := large[len(large)-1]
		large = large[:len(large)-1]
		s.cols[l] = column{prob: scaled[l], alias: g}
		scaled[g] = (scaled[g] + scaled[l]) - 1
		if scaled[g] < 1 {
			small = append(small, g)
		} else {
			large = append(large, g)
		}
	}
	// Leftovers in either list hold (up to rounding) exactly mass 1.
	for _, i := range large {
		s.cols[i] = column{prob: 1, alias: i}
	}
	for _, i := range small {
		s.cols[i] = column{prob: 1, alias: i}
	}
	return s
}

// N returns the number of indices the sampler draws from.
func (s *Sampler) N() int { return len(s.cols) }

// Pick draws one index, consuming exactly one rng.Float64(). The single
// uniform supplies both the column (integer part) and the accept test
// (fractional part) — the standard one-draw alias formulation.
func (s *Sampler) Pick(rng *rand.Rand) int {
	u := rng.Float64() * float64(len(s.cols))
	i := int(u)
	c := &s.cols[i]
	if u-float64(i) < c.prob {
		return i
	}
	return int(c.alias)
}
