// Package ipv4 is the simulator's one address type. An address is its
// 32-bit value, so tables of addresses hold no pointers, and addresses
// compare and hash as integers. The dotted quad exists only where an
// address is rendered at an edge: trace export, the metrics exposition,
// audit messages, printed tables and the CLIs.
//
// Outputs that list addresses keep the order of the rendered strings,
// in which "10.0.0.10" sorts before "10.0.0.9". That is not numeric
// order, so Compare computes it from a per-octet rank table, without
// rendering (DESIGN.md §22).
package ipv4

import (
	"cmp"
	"fmt"
	"slices"
	"strconv"
)

// Addr is an IPv4 address. The zero value, 0.0.0.0, is never handed
// out by an address pool, so callers use it as "no address", and it
// renders as the empty string.
type Addr uint32

// String renders a as a dotted quad, or "" for the zero Addr.
func (a Addr) String() string {
	if a == 0 {
		return ""
	}
	var buf [15]byte
	return string(a.appendTo(buf[:0]))
}

// AppendText appends a's dotted quad to b, or nothing for the zero
// Addr (encoding.TextAppender).
func (a Addr) AppendText(b []byte) ([]byte, error) {
	if a == 0 {
		return b, nil
	}
	return a.appendTo(b), nil
}

func (a Addr) appendTo(b []byte) []byte {
	b = strconv.AppendUint(b, uint64(a>>24), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(a>>16&255), 10)
	b = append(b, '.')
	b = strconv.AppendUint(b, uint64(a>>8&255), 10)
	b = append(b, '.')
	return strconv.AppendUint(b, uint64(a&255), 10)
}

// Parse parses a dotted quad: four decimal octets of one to three
// digits each, none above 255.
func Parse(s string) (Addr, error) {
	var v uint32
	part, digits, dots := uint32(0), 0, 0
	for i := 0; i < len(s); i++ {
		switch c := s[i]; {
		case c >= '0' && c <= '9':
			part = part*10 + uint32(c-'0')
			digits++
			if digits > 3 || part > 255 {
				return 0, fmt.Errorf("ipv4: bad address %q", s)
			}
		case c == '.':
			if digits == 0 || dots == 3 {
				return 0, fmt.Errorf("ipv4: bad address %q", s)
			}
			v = v<<8 | part
			part, digits = 0, 0
			dots++
		default:
			return 0, fmt.Errorf("ipv4: bad address %q", s)
		}
	}
	if dots != 3 || digits == 0 {
		return 0, fmt.Errorf("ipv4: bad address %q", s)
	}
	return Addr(v<<8 | part), nil
}

// MustParse is Parse for literals in tests and fixed tables; it panics
// on a malformed address.
func MustParse(s string) Addr {
	a, err := Parse(s)
	if err != nil {
		panic(err)
	}
	return a
}

// rank holds each octet's position among the 256 octets' decimal
// strings in lexical order: rank[1] < rank[10] < rank[100] < rank[2].
var rank = func() (r [256]uint8) {
	octets := make([]int, 256)
	for i := range octets {
		octets[i] = i
	}
	slices.SortFunc(octets, func(a, b int) int { return cmp.Compare(strconv.Itoa(a), strconv.Itoa(b)) })
	for pos, o := range octets {
		r[o] = uint8(pos)
	}
	return r
}()

// key returns a's lexical order key: key(a) < key(b) exactly when a's
// dotted quad sorts before b's. The zero Addr has the smallest key, as
// the empty string sorts first. Two quads are decided by their first
// octets whose decimal strings differ. Where neither string is a prefix
// of the other, the first differing digit decides, as between the octet
// strings. Where one is a proper prefix, it is followed by '.' or the
// end of the address, and both sort below every digit, as the end of a
// string does. So comparing octet ranks in order is comparing strings.
func (a Addr) key() uint32 {
	return uint32(rank[a>>24])<<24 | uint32(rank[a>>16&255])<<16 | uint32(rank[a>>8&255])<<8 | uint32(rank[a&255])
}

// Compare orders a and b as strings.Compare orders their dotted quads.
// Every sorted or binary-searched list of addresses uses it, so each
// output keeps the order it had when addresses were strings.
func (a Addr) Compare(b Addr) int { return cmp.Compare(a.key(), b.key()) }
