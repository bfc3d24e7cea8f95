package lbswitch

import "megadc/internal/ipv4"

// Named test addresses. Their dotted quads sort as their names do, so
// a test that orders addresses reads in name order.
var (
	ipA       = ipv4.MustParse("99.99.99.100") // "a"
	ipB       = ipv4.MustParse("99.99.99.101") // "b"
	ipBig     = ipv4.MustParse("99.99.99.102") // "big"
	ipC       = ipv4.MustParse("99.99.99.103") // "c"
	ipD       = ipv4.MustParse("99.99.99.104") // "d"
	ipE       = ipv4.MustParse("99.99.99.105") // "e"
	ipF       = ipv4.MustParse("99.99.99.106") // "f"
	ipMissing = ipv4.MustParse("99.99.99.107") // "missing"
	ipR       = ipv4.MustParse("99.99.99.108") // "r"
	ipR1      = ipv4.MustParse("99.99.99.109") // "r1"
	ipR2      = ipv4.MustParse("99.99.99.110") // "r2"
	ipR3      = ipv4.MustParse("99.99.99.111") // "r3"
	ipR4      = ipv4.MustParse("99.99.99.112") // "r4"
	ipT       = ipv4.MustParse("99.99.99.113") // "t"
	ipV       = ipv4.MustParse("99.99.99.114") // "v"
	ipW       = ipv4.MustParse("99.99.99.115") // "w"
	ipX       = ipv4.MustParse("99.99.99.116") // "x"
	ipZ       = ipv4.MustParse("99.99.99.117") // "z"
	ipZz      = ipv4.MustParse("99.99.99.118") // "zz"
)
