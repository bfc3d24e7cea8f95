// Package netmodel models the access network of the mega data center:
// ISP access routers, the access links that connect them to border
// routers, route advertisement state per VIP (including the AS-path-
// padded "backup" advertisements the paper's naive traffic-engineering
// baseline relies on), and a hose-model abstraction of the modern
// internal L2/L3 fabric (VL2 / fat-tree / PortLand) whose full-bisection
// guarantee is what lets the paper place LB switches at the border.
package netmodel

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"megadc/internal/health"
	"megadc/internal/ids"
	"megadc/internal/ipv4"
)

// Identifier types for access-network elements.
type (
	// AccessRouterID identifies an ISP's access router.
	AccessRouterID int
	// BorderRouterID identifies a data-center border router.
	BorderRouterID int
	// LinkID identifies one access link (AR ↔ border router).
	LinkID int
)

// VIPAddr is a virtual IP address as seen by the routing system: the
// same ipv4.Addr as lbswitch.VIP, named here so that this package does
// not depend on lbswitch.
//
// The network keys every per-VIP record by the VIP's dense handle (an
// ids.Index the platform's lbswitch.Fabric assigns, DESIGN.md §22) and
// reads an address only for errors and for the lexical order
// (ipv4.Addr.Compare) its canonical sums and sorted outputs follow.
type VIPAddr = ipv4.Addr

// AccessRouter belongs to one ISP from which the DC buys connectivity.
type AccessRouter struct {
	ID  AccessRouterID
	ISP string
}

// BorderRouter is a data-center border router. All border routers connect
// to all LB switches (through a thin L2 layer), so the model does not
// track border-router↔switch links individually.
type BorderRouter struct {
	ID BorderRouterID
}

// Link is an access link between an access router and a border router,
// with finite capacity and a per-Mbps usage cost (the paper motivates
// traffic control "according to the business requirements, e.g.,
// different link usage costs").
type Link struct {
	ID           LinkID
	Router       AccessRouterID
	Border       BorderRouterID
	CapacityMbps float64
	CostPerMbps  float64

	// Health tracks the failure/repair lifecycle; traffic routed over a
	// non-serving link is dropped until the route is withdrawn or the
	// link repaired.
	Health health.State

	// The VIPs that may hold a traffic share on this link, by handle,
	// kept in lexical address order so the total load is always the
	// same canonical sum regardless of the order shares were applied
	// in. A running add/subtract accumulator would drift by ULPs
	// depending on update history, which would break the bit-for-bit
	// equivalence between incremental and full demand propagation. The
	// share itself lives in the VIP's record (vipState.shareOn), whose
	// entry for the link is marked keyed while the link holds the key.
	//
	// A VIP whose share drops to 0 stays in shareKeys, so the undo/apply
	// pair of a demand update rewrites a value instead of deleting and
	// re-inserting a key in a sorted slice. LoadMbps drops the zero
	// keys when it rebuilds the sum, which bounds the key set by the
	// VIPs that carried traffic since the last read.
	net       *Network
	shareKeys []ids.Index
	loadSum   float64
	sumValid  bool
}

// Serving reports whether the link is healthy enough to carry traffic.
func (l *Link) Serving() bool { return l.Health.Serving() }

// LoadMbps returns the current offered load on the link: the sum of the
// per-VIP shares in lexical VIP address order (cached until a share
// changes).
//
// Rebuilding the sum also compacts away the zero-share keys. They never
// changed a bit of it: shares are non-negative and the sum starts at +0,
// so every partial sum x is ≥ +0, and for such x, x + 0 == x exactly.
// Because it writes the link, LoadMbps must not run concurrently with
// anything else that touches the network.
func (l *Link) LoadMbps() float64 {
	if !l.sumValid {
		var sum float64
		keep := l.shareKeys[:0]
		for _, h := range l.shareKeys {
			st := &l.net.vips[h]
			share := st.shareOn(l.ID)
			if share == 0 {
				st.unkey(l.ID)
				continue
			}
			sum += share
			keep = append(keep, h)
		}
		l.shareKeys = keep
		l.loadSum = sum
		l.sumValid = true
	}
	return l.loadSum
}

// addKey inserts handle h into the link's key set at its lexical
// address position; the caller marks the VIP's entry for the link
// keyed. Only a key the link does not hold (never held, or compacted
// away) gets here.
func (l *Link) addKey(h ids.Index) {
	addr := l.net.addr(h)
	i, _ := slices.BinarySearchFunc(l.shareKeys, addr, func(k ids.Index, a VIPAddr) int {
		return l.net.addr(k).Compare(a)
	})
	l.shareKeys = slices.Insert(l.shareKeys, i, h)
}

// Utilization returns load/capacity; above 1 means overloaded.
func (l *Link) Utilization() float64 {
	if l.CapacityMbps <= 0 {
		return 0
	}
	return l.LoadMbps() / l.CapacityMbps
}

// vipLink is one link of a VIP's record, 8 bytes: whether the VIP is
// advertised there (adv; padded when the route is AS-path padded, kept
// as backup and attracting no new traffic) and whether the link's share
// keys hold the VIP (keyed). A link carries the VIP's traffic exactly
// when it is active: advertised and not padded.
type vipLink struct {
	link   int32
	adv    bool
	padded bool
	keyed  bool
}

// active reports whether the link carries the VIP's traffic.
func (e vipLink) active() bool { return e.adv && !e.padded }

// vipState is everything the network holds about one VIP, in one record
// indexed by the VIP's handle, so a traffic update costs one slice
// index and reaches the VIP's links through one more load. A record is
// empty (no advertised link, no traffic, no share) while the VIP has no
// advertisement and no traffic; links the VIP left may stay listed,
// keyed, until their next LoadMbps compacts them.
type vipState struct {
	// links lists every link the VIP is advertised on or keyed by,
	// sorted by link, at most one entry per link.
	links   []vipLink
	traffic float64
	// share is the traffic split equally over the active links (0 when
	// the VIP has no traffic or no active link); every active link is
	// keyed while it is non-zero.
	share float64
}

// find returns the index of link id's entry, or where it would go. A
// VIP is listed on a link or two, so a scan beats a binary search.
func (st *vipState) find(id LinkID) (int, bool) {
	for i, e := range st.links {
		if l := LinkID(e.link); l >= id {
			return i, l == id
		}
	}
	return len(st.links), false
}

// shareOn returns the VIP's traffic share on link id.
func (st *vipState) shareOn(id LinkID) float64 {
	if st.share == 0 {
		return 0
	}
	if i, ok := st.find(id); ok && st.links[i].active() {
		return st.share
	}
	return 0
}

// unkey records that link id no longer holds the VIP's key, dropping
// the entry when the VIP is not advertised there either.
func (st *vipState) unkey(id LinkID) {
	if i, ok := st.find(id); ok {
		if st.links[i].keyed = false; !st.links[i].adv {
			st.links = slices.Delete(st.links, i, i+1)
		}
	}
}

// Network is the access-connection layer state.
type Network struct {
	routers map[AccessRouterID]*AccessRouter
	borders map[BorderRouterID]*BorderRouter
	links   []*Link // indexed by LinkID; IDs are dense from AddLink

	vips []vipState // indexed by VIP handle
	addr func(ids.Index) VIPAddr

	// spare is room set aside by Reserve for the link lists of records
	// not yet advertised, which their first Advertise takes.
	spare ids.Spare[vipLink]

	// RouteUpdates counts BGP route updates emitted towards the ISPs
	// (each advertise, withdraw, or padding change is one update). The
	// paper's selective-VIP-exposure knob exists precisely to keep this
	// number low; E4 reports it.
	RouteUpdates int64

	// OnRouteChange, when set, is called after any advertisement change
	// for a VIP (advertise, withdraw, padding flip) with the VIP's
	// handle. The platform uses it to mark the VIP's owner dirty for
	// incremental demand propagation.
	OnRouteChange func(h ids.Index)
}

// Errors returned by network operations.
var (
	ErrUnknownLink = errors.New("netmodel: unknown link")
	ErrNoRoute     = errors.New("netmodel: VIP has no active route")
	ErrDupAd       = errors.New("netmodel: VIP already advertised on link")
)

// New returns an empty access network whose VIPs are named by handle;
// addr renders a handle's address (the platform passes its fabric's
// table, lbswitch.Fabric.Addr).
func New(addr func(h ids.Index) VIPAddr) *Network {
	return &Network{
		routers: make(map[AccessRouterID]*AccessRouter),
		borders: make(map[BorderRouterID]*BorderRouter),
		addr:    addr,
	}
}

// AddAccessRouter registers an access router owned by isp.
func (n *Network) AddAccessRouter(isp string) *AccessRouter {
	r := &AccessRouter{ID: AccessRouterID(len(n.routers)), ISP: isp}
	n.routers[r.ID] = r
	return r
}

// AddBorderRouter registers a border router.
func (n *Network) AddBorderRouter() *BorderRouter {
	b := &BorderRouter{ID: BorderRouterID(len(n.borders))}
	n.borders[b.ID] = b
	return b
}

// AddLink creates an access link between ar and br.
func (n *Network) AddLink(ar AccessRouterID, br BorderRouterID, capacityMbps, costPerMbps float64) (*Link, error) {
	if _, ok := n.routers[ar]; !ok {
		return nil, fmt.Errorf("netmodel: unknown access router %d", ar)
	}
	if _, ok := n.borders[br]; !ok {
		return nil, fmt.Errorf("netmodel: unknown border router %d", br)
	}
	if capacityMbps <= 0 {
		return nil, fmt.Errorf("netmodel: non-positive capacity %v", capacityMbps)
	}
	l := &Link{ID: LinkID(len(n.links)), Router: ar, Border: br, CapacityMbps: capacityMbps, CostPerMbps: costPerMbps,
		net: n}
	n.links = append(n.links, l)
	return l, nil
}

// Link returns the link with the given ID, or nil.
func (n *Network) Link(id LinkID) *Link {
	if id < 0 || int(id) >= len(n.links) {
		return nil
	}
	return n.links[id]
}

// Links returns all links in creation order.
func (n *Network) Links() []*Link { return slices.Clone(n.links) }

// NumLinks returns the number of links; their IDs are 0..NumLinks()-1.
func (n *Network) NumLinks() int { return len(n.links) }

// Router returns the access router with the given ID, or nil.
func (n *Network) Router(id AccessRouterID) *AccessRouter { return n.routers[id] }

// NumRouters returns the number of access routers.
func (n *Network) NumRouters() int { return len(n.routers) }

// NumBorders returns the number of border routers.
func (n *Network) NumBorders() int { return len(n.borders) }

// vip returns handle h's record, growing the table to hold it.
func (n *Network) vip(h ids.Index) *vipState {
	if k := int(h) + 1; k > len(n.vips) {
		n.vips = slices.Grow(n.vips, k-len(n.vips))[:k] // room past len is zero: the table never shrinks
	}
	return &n.vips[h]
}

// Reserve makes room in the per-VIP table for vips more handles past
// the highest one seen, so a build that advertises them in handle order
// grows the table once instead of regrowing it on the way, and sets
// aside one allocation from which each of the next vips records to
// take a link gets a list with room for one link, the one a bulk build
// advertises each VIP on.
func (n *Network) Reserve(vips int) {
	n.vips = slices.Grow(n.vips, vips)
	n.spare = ids.NewSpare[vipLink](vips, 1)
}

// find returns handle h's record, or nil when the table never grew to it.
func (n *Network) find(h ids.Index) *vipState {
	if h < 0 || int(h) >= len(n.vips) {
		return nil
	}
	return &n.vips[h]
}

// routeChanged respreads the VIP's traffic after an advertisement change
// and notifies the route-change hook.
func (n *Network) routeChanged(h ids.Index, st *vipState) {
	n.RouteUpdates++
	n.redistribute(h, st, true)
	if n.OnRouteChange != nil {
		n.OnRouteChange(h)
	}
}

// Advertise announces the VIP with handle h over the given link. If
// padded is true the route is AS-path padded: it provides reachability
// as a backup but attracts no new traffic.
func (n *Network) Advertise(h ids.Index, link LinkID, padded bool) error {
	if n.Link(link) == nil {
		return fmt.Errorf("%w: %d", ErrUnknownLink, link)
	}
	st := n.vip(h)
	i, ok := st.find(link)
	switch {
	case ok && st.links[i].adv:
		return fmt.Errorf("%w: %s on %d", ErrDupAd, n.addr(h), link)
	case ok: // still keyed from an earlier route
		st.links[i].adv, st.links[i].padded = true, padded
	default:
		if st.links == nil {
			st.links = n.spare.Take()
		}
		st.links = slices.Insert(st.links, i, vipLink{link: int32(link), adv: true, padded: padded})
	}
	n.routeChanged(h, st)
	return nil
}

// advertised returns the VIP's record and the index of its entry for
// link when the VIP is advertised there.
func (n *Network) advertised(h ids.Index, link LinkID) (*vipState, int, bool) {
	if st := n.find(h); st != nil {
		if i, ok := st.find(link); ok && st.links[i].adv {
			return st, i, true
		}
	}
	return nil, 0, false
}

// Withdraw removes the VIP's route from the given link.
func (n *Network) Withdraw(h ids.Index, link LinkID) error {
	if st, i, ok := n.advertised(h, link); ok {
		if e := &st.links[i]; e.keyed {
			e.adv, e.padded = false, false // the link still holds the key
		} else {
			st.links = slices.Delete(st.links, i, i+1)
		}
		n.routeChanged(h, st)
		return nil
	}
	return fmt.Errorf("%w: %s not on link %d", ErrNoRoute, n.addr(h), link)
}

// SetPadded changes the padding state of an existing advertisement; this
// is the "advertise padded AS paths through the old routers before
// withdrawing" transition step of the naive baseline.
func (n *Network) SetPadded(h ids.Index, link LinkID, padded bool) error {
	if st, i, ok := n.advertised(h, link); ok {
		if st.links[i].padded != padded {
			st.links[i].padded = padded
			n.routeChanged(h, st)
		}
		return nil
	}
	return fmt.Errorf("%w: %s not on link %d", ErrNoRoute, n.addr(h), link)
}

// linksOf returns the VIP's link entries (nil when it has none).
func (n *Network) linksOf(h ids.Index) []vipLink {
	if st := n.find(h); st != nil {
		return st.links
	}
	return nil
}

// ActiveLinks returns the links carrying the VIP (unpadded
// advertisements), sorted by LinkID.
func (n *Network) ActiveLinks(h ids.Index) []LinkID {
	var out []LinkID
	for _, e := range n.linksOf(h) {
		if e.active() {
			out = append(out, LinkID(e.link))
		}
	}
	return out
}

// RouteCounts returns how many active (unpadded) routes the VIP has and
// how many of them terminate on serving links, without allocating — the
// reachability inputs the demand-propagation hot path needs.
func (n *Network) RouteCounts(h ids.Index) (active, serving int) {
	for _, e := range n.linksOf(h) {
		if !e.active() {
			continue
		}
		active++
		if n.links[e.link].Serving() {
			serving++
		}
	}
	return active, serving
}

// AllLinks returns every link the VIP is advertised on, padded or not.
func (n *Network) AllLinks(h ids.Index) []LinkID {
	var out []LinkID
	for _, e := range n.linksOf(h) {
		if e.adv {
			out = append(out, LinkID(e.link))
		}
	}
	return out
}

// SetVIPTraffic sets the external traffic attributed to the VIP in Mbps.
// The traffic is carried by the VIP's active links, split equally
// (external BGP splits coarse-grained; the paper controls balance at the
// granularity of whole VIPs via DNS, not per-link ratios).
func (n *Network) SetVIPTraffic(h ids.Index, mbps float64) error {
	if mbps < 0 {
		return fmt.Errorf("netmodel: negative traffic %v", mbps)
	}
	var st *vipState
	if mbps == 0 {
		if st = n.find(h); st == nil {
			return nil
		}
		mbps = 0 // -0 is stored as +0
	} else {
		st = n.vip(h)
	}
	st.traffic = mbps
	n.redistribute(h, st, false)
	return nil
}

// VIPTraffic returns the external traffic attributed to the VIP.
func (n *Network) VIPTraffic(h ids.Index) float64 {
	if st := n.find(h); st != nil {
		return st.traffic
	}
	return 0
}

// redistribute incrementally updates link loads for one VIP: it
// invalidates the links that carried its previous share and spreads the
// current traffic over the current active links, keying the VIP on any
// link that does not hold it yet. Incremental updates keep
// SetVIPTraffic O(links-per-VIP) so experiments can carry tens of
// thousands of VIPs. Between route changes the links that carried the
// previous share are the active ones; routes reports a route change
// (every change to the advertisements goes through routeChanged), which
// may have withdrawn or padded some of them, but each still holds its
// keyed mark, so then every keyed link is invalidated.
func (n *Network) redistribute(h ids.Index, st *vipState, routes bool) {
	active := 0
	for _, e := range st.links {
		if st.share != 0 && e.keyed && (routes || e.active()) {
			n.links[e.link].sumValid = false
		}
		if e.active() {
			active++
		}
	}
	st.share = 0
	if st.traffic == 0 || active == 0 {
		return
	}
	st.share = st.traffic / float64(active)
	for i := range st.links {
		e := &st.links[i]
		if !e.active() {
			continue
		}
		l := n.links[e.link]
		if !e.keyed {
			l.addKey(h)
			e.keyed = true
		}
		l.sumValid = false
	}
}

// LinkLoads returns per-link load in creation order.
func (n *Network) LinkLoads() []float64 {
	out := make([]float64, 0, len(n.links))
	for _, l := range n.links {
		out = append(out, l.LoadMbps())
	}
	return out
}

// LinkUtilizations returns per-link utilization in creation order.
func (n *Network) LinkUtilizations() []float64 {
	out := make([]float64, 0, len(n.links))
	for _, l := range n.links {
		out = append(out, l.Utilization())
	}
	return out
}

// OverloadedLinks returns IDs of links with utilization above threshold,
// sorted by descending utilization.
func (n *Network) OverloadedLinks(threshold float64) []LinkID {
	var out []LinkID
	for _, l := range n.links {
		if l.Utilization() > threshold {
			out = append(out, l.ID)
		}
	}
	slices.SortFunc(out, func(a, b LinkID) int {
		ua, ub := n.links[a].Utilization(), n.links[b].Utilization()
		if ua != ub {
			if ua > ub {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
	return out
}

// TotalCost returns the sum over links of load × cost-per-Mbps.
func (n *Network) TotalCost() float64 {
	var sum float64
	for _, l := range n.links {
		sum += l.LoadMbps() * l.CostPerMbps
	}
	return sum
}

// VIPsOnLink returns the handles of the VIPs actively carried by the
// link, in lexical address order.
func (n *Network) VIPsOnLink(link LinkID) []ids.Index {
	var out []ids.Index
	for h := range n.vips {
		if i, ok := n.vips[h].find(link); ok && n.vips[h].links[i].active() {
			out = append(out, ids.Index(h))
		}
	}
	n.sortByAddr(out)
	return out
}

// sortByAddr sorts handles into lexical address order: the one order
// the network lets reach an output or a float sum.
func (n *Network) sortByAddr(hs []ids.Index) {
	slices.SortFunc(hs, func(a, b ids.Index) int { return n.addr(a).Compare(n.addr(b)) })
}

// CheckInvariants verifies that link loads equal the per-VIP traffic
// shares, that no advertisement references a missing link, and that
// every link's key set is in address order and agrees with the keyed
// marks of its VIPs.
func (n *Network) CheckInvariants() error {
	// Lexical VIP order: the expected per-link loads are float sums, so
	// the accumulation order must be the canonical one.
	var vips []ids.Index
	for h := range n.vips {
		st := &n.vips[h]
		if slices.ContainsFunc(st.links, func(e vipLink) bool { return e.adv }) || st.traffic != 0 {
			vips = append(vips, ids.Index(h))
		}
	}
	n.sortByAddr(vips)
	want := make([]float64, len(n.links))
	for _, h := range vips {
		st := &n.vips[h]
		for i, e := range st.links {
			if n.Link(LinkID(e.link)) == nil {
				return fmt.Errorf("vip %s lists missing link %d", n.addr(h), e.link)
			}
			if i > 0 && st.links[i-1].link >= e.link {
				return fmt.Errorf("vip %s link list not strictly ascending at link %d", n.addr(h), e.link)
			}
		}
		active := n.ActiveLinks(h)
		if st.traffic > 0 && len(active) > 0 {
			share := st.traffic / float64(len(active))
			for _, id := range active {
				want[id] += share
			}
		}
	}
	for _, l := range n.links {
		for i, h := range l.shareKeys {
			if i > 0 && n.addr(l.shareKeys[i-1]).Compare(n.addr(h)) >= 0 {
				return fmt.Errorf("link %d share keys out of address order at %s", l.ID, n.addr(h))
			}
			if i, ok := n.vips[h].find(l.ID); !ok || !n.vips[h].links[i].keyed {
				return fmt.Errorf("link %d keys vip %s, which does not list the link", l.ID, n.addr(h))
			}
		}
		w := want[l.ID]
		d := l.LoadMbps() - w
		if d < 0 {
			d = -d
		}
		if d > 1e-6*(1+w) {
			return fmt.Errorf("link %d load %v != expected %v", l.ID, l.LoadMbps(), w)
		}
	}
	return nil
}
