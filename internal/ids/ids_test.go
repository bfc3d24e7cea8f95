package ids

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestBitsetBasics(t *testing.T) {
	var b Bitset
	if b.Get(100) {
		t.Fatal("empty set contains 100")
	}
	if !b.Set(100) || b.Set(100) {
		t.Fatal("Set newness misreported")
	}
	if !b.Get(100) || b.Count() != 1 {
		t.Fatal("membership after Set wrong")
	}
	if !b.Clear(100) || b.Clear(100) || b.Clear(9999) {
		t.Fatal("Clear presence misreported")
	}
	if b.Count() != 0 {
		t.Fatalf("count = %d after clear", b.Count())
	}
}

// TestBitsetMatchesMap cross-checks the bitset against a reference map
// under random churn, including the sorted-members contract.
func TestBitsetMatchesMap(t *testing.T) {
	var b Bitset
	ref := make(map[int]bool)
	rng := rand.New(rand.NewSource(3))
	for op := 0; op < 20000; op++ {
		i := rng.Intn(2000)
		switch rng.Intn(3) {
		case 0:
			if b.Set(i) != !ref[i] {
				t.Fatalf("Set(%d) newness mismatch", i)
			}
			ref[i] = true
		case 1:
			if b.Clear(i) != ref[i] {
				t.Fatalf("Clear(%d) presence mismatch", i)
			}
			delete(ref, i)
		default:
			if b.Get(i) != ref[i] {
				t.Fatalf("Get(%d) mismatch", i)
			}
		}
	}
	if b.Count() != len(ref) {
		t.Fatalf("count %d != %d", b.Count(), len(ref))
	}
	members := b.AppendMembers(nil)
	if len(members) != len(ref) {
		t.Fatalf("members %d != %d", len(members), len(ref))
	}
	for i, m := range members {
		if !ref[int(m)] {
			t.Fatalf("member %d not in reference", m)
		}
		if i > 0 && members[i-1] >= m {
			t.Fatalf("members not strictly ascending at %d", i)
		}
	}
}

func TestBitsetReset(t *testing.T) {
	var b Bitset
	for i := 0; i < 500; i += 7 {
		b.Set(i)
	}
	b.Reset()
	if b.Count() != 0 || len(b.AppendMembers(nil)) != 0 {
		t.Fatal("Reset left members behind")
	}
	if !b.Set(3) {
		t.Fatal("Set after Reset not new")
	}
}

// bitsetOp is one step of the watermark property test.
type bitsetOp struct {
	Kind uint8  // Set, Clear, Reset, AppendMembers/Count, Grow
	I    uint16 // member for Set/Clear, length for Grow
}

// TestPropertyBitsetWatermark checks the bitset against a map model
// over random Set/Clear/Reset/AppendMembers/Count sequences, with Grow
// past the current length in between: members come out ascending and
// exactly as the model holds them, however the tracked word range
// moved.
func TestPropertyBitsetWatermark(t *testing.T) {
	prop := func(ops []bitsetOp) bool {
		var b Bitset
		ref := make(map[int]bool)
		for _, op := range ops {
			i := int(op.I) % 5000
			switch op.Kind % 6 {
			case 0, 1:
				if b.Set(i) == ref[i] {
					return false
				}
				ref[i] = true
			case 2:
				if b.Clear(i) != ref[i] {
					return false
				}
				delete(ref, i)
			case 3:
				if op.I%8 == 0 {
					b.Reset()
					clear(ref)
				}
			case 4:
				b.Grow(len(b.words)*64 + int(op.I)%300)
			}
			if b.Count() != len(ref) {
				return false
			}
			members := b.AppendMembers(nil)
			if len(members) != len(ref) {
				return false
			}
			for k, m := range members {
				if !ref[int(m)] || (k > 0 && members[k-1] >= m) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(11))}); err != nil {
		t.Fatal(err)
	}
}

// TestBitsetWatermarkSpan pins the cost bound: one member of a
// 100K-bit set spans one word, and Reset leaves every word zero.
func TestBitsetWatermarkSpan(t *testing.T) {
	var b Bitset
	b.Grow(100_000)
	b.Set(70_001)
	if b.hi-b.lo != 1 {
		t.Fatalf("one member spans words [%d, %d), want one word", b.lo, b.hi)
	}
	b.Set(9)
	b.Set(99_999)
	b.Clear(70_001)
	b.Reset()
	for wi, w := range b.words {
		if w != 0 {
			t.Fatalf("word %d = %#x after Reset", wi, w)
		}
	}
	b.Set(64)
	if b.lo != 1 || b.hi != 2 || len(b.AppendMembers(nil)) != 1 {
		t.Fatalf("after Reset and Set(64): words [%d, %d)", b.lo, b.hi)
	}
}
