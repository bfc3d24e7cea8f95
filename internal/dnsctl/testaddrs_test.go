package dnsctl

import "megadc/internal/ipv4"

// Named test addresses. Their dotted quads sort as their names do, so
// a test that orders addresses reads in name order.
var (
	ipA    = ipv4.MustParse("99.99.99.100") // "a"
	ipB    = ipv4.MustParse("99.99.99.101") // "b"
	ipC    = ipv4.MustParse("99.99.99.102") // "c"
	ipNew  = ipv4.MustParse("99.99.99.103") // "new"
	ipNope = ipv4.MustParse("99.99.99.104") // "nope"
	ipOld  = ipv4.MustParse("99.99.99.105") // "old"
	ipV1   = ipv4.MustParse("99.99.99.106") // "v1"
	ipV2   = ipv4.MustParse("99.99.99.107") // "v2"
	ipZzz  = ipv4.MustParse("99.99.99.108") // "zzz"
)
