package trace

import "megadc/internal/ipv4"

// Named test addresses. Their dotted quads sort as their names do, so
// a test that orders addresses reads in name order.
var (
	ipA      = ipv4.MustParse("99.99.99.100") // "a"
	ipAbsent = ipv4.MustParse("99.99.99.101") // "absent"
	ipB      = ipv4.MustParse("99.99.99.102") // "b"
	ipCold   = ipv4.MustParse("99.99.99.103") // "cold"
	ipHot    = ipv4.MustParse("99.99.99.104") // "hot"
	ipR1     = ipv4.MustParse("99.99.99.105") // "r1"
	ipZzz    = ipv4.MustParse("99.99.99.106") // "zzz"
)
