package ipv4

import (
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
)

// TestParseFormatRoundTrip checks Parse against String over random
// addresses, String against the standard library's rendering, and
// pins the rejection of malformed input.
func TestParseFormatRoundTrip(t *testing.T) {
	f := func(v uint32) bool {
		a := Addr(v | 1) // the zero Addr renders empty; see TestZeroIsNoAddress
		v = uint32(a)
		got, err := Parse(a.String())
		std := netip.AddrFrom4([4]byte{byte(v >> 24), byte(v >> 16), byte(v >> 8), byte(v)})
		return err == nil && got == a && a.String() == std.String()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
	for _, bad := range []string{
		"", ".", "1.2.3", "1.2.3.4.5", "256.0.0.1", "1.2.3.1000",
		"1..2.3", "a.b.c.d", "1.2.3.4 ", " 1.2.3.4", "-1.2.3.4", "1.2.3.",
	} {
		if _, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted malformed input", bad)
		}
	}
	if got := MustParse("10.0.1.255"); got != 10<<24|1<<8|255 {
		t.Errorf("MustParse(10.0.1.255) = %d", uint32(got))
	}
	b, err := MustParse("198.51.100.7").AppendText([]byte("vip "))
	if err != nil || string(b) != "vip 198.51.100.7" {
		t.Errorf("AppendText = %q, %v", b, err)
	}
}

// TestZeroIsNoAddress pins the "no address" value: it renders empty and
// sorts before every address, as the empty string does.
func TestZeroIsNoAddress(t *testing.T) {
	if s := Addr(0).String(); s != "" {
		t.Errorf("Addr(0).String() = %q, want empty", s)
	}
	if b, _ := Addr(0).AppendText([]byte("vip:")); string(b) != "vip:" {
		t.Errorf("Addr(0).AppendText = %q", b)
	}
	if Addr(0).Compare(MustParse("0.0.0.1")) >= 0 || Addr(0).Compare(0) != 0 {
		t.Error("the zero Addr must sort first")
	}
	if got, err := Parse("0.0.0.0"); err != nil || got != 0 {
		t.Errorf("Parse(0.0.0.0) = %v, %v", got, err)
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("MustParse accepted a malformed address")
		}
	}()
	MustParse("10.0.0")
}

// TestCompareIsLexical checks that Compare orders addresses exactly as
// strings.Compare orders their dotted quads: on every pair of octets in
// every position, and on 1M random address pairs.
func TestCompareIsLexical(t *testing.T) {
	check := func(a, b Addr) {
		if got, want := a.Compare(b), strings.Compare(a.String(), b.String()); got != want {
			t.Fatalf("Compare(%s, %s) = %d, strings.Compare = %d", a, b, got, want)
		}
	}
	for x := 0; x < 256; x++ {
		for y := 0; y < 256; y++ {
			for shift := 0; shift < 32; shift += 8 {
				base := MustParse("10.20.30.40") &^ (255 << shift)
				check(base|Addr(x)<<shift, base|Addr(y)<<shift)
			}
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 1_000_000; i++ {
		a := Addr(rng.Uint32())
		b := a
		// Pairs sharing a prefix exercise the later octets too.
		switch i % 4 {
		case 0:
			b = Addr(rng.Uint32())
		case 1:
			b = a&^0xff | Addr(rng.Intn(256))
		case 2:
			b = a&^0xffff | Addr(rng.Intn(1<<16))
		case 3:
			b = a&^0xffffff | Addr(rng.Intn(1<<24))
		}
		check(a, b)
	}
}

// TestCompareAllocs pins the comparator allocation-free: sorts and
// binary searches call it in hot loops.
func TestCompareAllocs(t *testing.T) {
	a, b := MustParse("10.0.0.10"), MustParse("10.0.0.9")
	if n := testing.AllocsPerRun(100, func() {
		if a.Compare(b) >= 0 {
			t.Fatal("10.0.0.10 must sort before 10.0.0.9")
		}
	}); n != 0 {
		t.Errorf("Compare allocates %v times", n)
	}
}
