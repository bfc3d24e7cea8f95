package netmodel

import "megadc/internal/ipv4"

// Named test addresses. Their dotted quads sort as their names do, so
// a test that orders addresses reads in name order.
var (
	ipA  = ipv4.MustParse("99.99.99.100") // "a"
	ipB  = ipv4.MustParse("99.99.99.101") // "b"
	ipV  = ipv4.MustParse("99.99.99.102") // "v"
	ipV1 = ipv4.MustParse("99.99.99.103") // "v1"
	ipV2 = ipv4.MustParse("99.99.99.104") // "v2"
	ipV3 = ipv4.MustParse("99.99.99.105") // "v3"
)
