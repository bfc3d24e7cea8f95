// Package ids provides the dense integer-ID machinery behind the
// paper-scale data path (DESIGN.md §13): the Index type every dense
// handle uses (VIP handles, which lbswitch.Fabric assigns, DESIGN.md
// §22), so hot-path state can live in flat struct-of-arrays tables
// indexed by slice offset instead of pointer-heavy maps, and a bitset
// used for dirty sets and membership flags.
package ids

import "math/bits"

// Index is a dense index. The zero value is a valid index; None marks
// "no entity".
type Index = int32

// None is the sentinel for an absent index.
const None Index = -1

// Bitset is a growable set of small non-negative integers. The zero
// value is an empty set. All methods tolerate out-of-range reads
// (absent) and grow on writes, so callers can index by entity ID
// without pre-sizing.
//
// The set tracks the word range [lo, hi) that can hold members, so
// Reset and AppendMembers cost the span of the members rather than the
// whole table: a dirty set with one member among 100K scans one word.
type Bitset struct {
	words  []uint64
	count  int
	lo, hi int // every set bit lies in words[lo:hi]; meaningless when count == 0
}

// Grow ensures the set can hold members in [0, n) without reallocating.
func (b *Bitset) Grow(n int) {
	need := (n + 63) / 64
	if need > len(b.words) {
		if need <= cap(b.words) {
			b.words = b.words[:need]
		} else {
			w := make([]uint64, need, need+need/2)
			copy(w, b.words)
			b.words = w
		}
	}
}

// Set adds i to the set, reporting whether it was newly added.
func (b *Bitset) Set(i int) bool {
	b.Grow(i + 1)
	w, m := i>>6, uint64(1)<<(uint(i)&63)
	if b.words[w]&m != 0 {
		return false
	}
	b.words[w] |= m
	if b.count == 0 {
		b.lo, b.hi = w, w+1
	} else if w < b.lo {
		b.lo = w
	} else if w >= b.hi {
		b.hi = w + 1
	}
	b.count++
	return true
}

// Clear removes i from the set, reporting whether it was present.
func (b *Bitset) Clear(i int) bool {
	w := i >> 6
	if w >= len(b.words) {
		return false
	}
	m := uint64(1) << (uint(i) & 63)
	if b.words[w]&m == 0 {
		return false
	}
	b.words[w] &^= m
	b.count--
	return true
}

// Get reports whether i is in the set.
func (b *Bitset) Get(i int) bool {
	w := i >> 6
	return w >= 0 && w < len(b.words) && b.words[w]&(uint64(1)<<(uint(i)&63)) != 0
}

// Count returns the number of members.
func (b *Bitset) Count() int { return b.count }

// Reset empties the set, keeping capacity.
func (b *Bitset) Reset() {
	if b.count > 0 {
		clear(b.words[b.lo:b.hi])
	}
	b.count = 0
}

// AppendMembers appends the members in ascending order to dst and
// returns it; bitset iteration order is inherently sorted, so callers
// get deterministic traversal without a separate sorted index.
func (b *Bitset) AppendMembers(dst []int32) []int32 {
	if b.count == 0 {
		return dst
	}
	for wi := b.lo; wi < b.hi; wi++ {
		w := b.words[wi]
		base := int32(wi << 6)
		for w != 0 {
			dst = append(dst, base+int32(bits.TrailingZeros64(w)))
			w &= w - 1
		}
	}
	return dst
}

// Spare is room set aside in one allocation for the records or lists of
// entities not yet created (DESIGN.md §13): a bulk build that knows
// every count reserves one Spare per kind, and the constructor that
// would have allocated each record or list takes it from there instead.
// The zero value holds no room.
type Spare[T any] struct {
	room []T
	n    int
}

// NewSpare sets aside room for count lists of n elements each, or, with
// n = 1, for count records.
func NewSpare[T any](count, n int) Spare[T] {
	return Spare[T]{room: make([]T, count*n), n: n}
}

// Take returns the next list's room: an empty slice of capacity n,
// capacity-limited, so a list that outgrows it reallocates instead of
// writing into the next list's room. It returns nil once the room is
// used up, and append then allocates as usual.
func (s *Spare[T]) Take() []T {
	if s.n == 0 || len(s.room) < s.n {
		return nil
	}
	l := s.room[:0:s.n]
	s.room = s.room[s.n:]
	return l
}

// Next returns the next record of a Spare of records, zeroed, or a new
// one once the room is used up. A record never moves, so its pointer
// stays valid like an allocated one's.
func (s *Spare[T]) Next() *T {
	if len(s.room) == 0 {
		return new(T)
	}
	r := &s.room[0]
	s.room = s.room[1:]
	return r
}
