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

// VIPAddr is a virtual IP address as seen by the routing system. It is
// deliberately a separate type from lbswitch.VIP only in name — both are
// strings — so that this package does not depend on lbswitch.
type VIPAddr = string

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

	// Per-VIP traffic shares currently routed over this link, with the
	// key set kept sorted so the total load is always the same canonical
	// sum regardless of the order shares were applied in. A running
	// add/subtract accumulator would drift by ULPs depending on update
	// history, which would break the bit-for-bit equivalence between
	// incremental and full demand propagation.
	//
	// A cleared share stays in shareKeys with value 0, so the undo/apply
	// pair of a demand update rewrites a value instead of deleting and
	// re-inserting a key in a sorted slice. LoadMbps drops the zero
	// keys when it rebuilds the sum, which bounds the key set by the
	// VIPs that carried traffic since the last read.
	shares    map[VIPAddr]float64
	shareKeys []VIPAddr
	loadSum   float64
	sumValid  bool
}

// Serving reports whether the link is healthy enough to carry traffic.
func (l *Link) Serving() bool { return l.Health.Serving() }

// LoadMbps returns the current offered load on the link: the sum of the
// per-VIP shares in sorted VIP order (cached until a share changes).
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
		for _, vip := range l.shareKeys {
			share := l.shares[vip]
			if share == 0 {
				delete(l.shares, vip)
				continue
			}
			sum += share
			keep = append(keep, vip)
		}
		clear(l.shareKeys[len(keep):]) // release the dropped strings
		l.shareKeys = keep
		l.loadSum = sum
		l.sumValid = true
	}
	return l.loadSum
}

// setShare records vip's share. Only a key the link does not hold (never
// held, or compacted away) costs a sorted insert.
func (l *Link) setShare(vip VIPAddr, share float64) {
	if _, ok := l.shares[vip]; !ok {
		i, _ := slices.BinarySearch(l.shareKeys, vip)
		l.shareKeys = slices.Insert(l.shareKeys, i, vip)
	}
	l.shares[vip] = share
	l.sumValid = false
}

// clearShare zeroes vip's share in place; LoadMbps drops the key later.
func (l *Link) clearShare(vip VIPAddr) {
	if share, ok := l.shares[vip]; ok && share != 0 {
		l.shares[vip] = 0
		l.sumValid = false
	}
}

// Utilization returns load/capacity; above 1 means overloaded.
func (l *Link) Utilization() float64 {
	if l.CapacityMbps <= 0 {
		return 0
	}
	return l.LoadMbps() / l.CapacityMbps
}

// advertisement is one VIP route at one link.
type advertisement struct {
	link   LinkID
	padded bool // AS-path padded: kept as backup, attracts no new traffic
}

// vipState is everything the network holds about one VIP, in one record
// so a traffic update costs one network-level map lookup. A record
// exists while the VIP has an advertisement or nonzero traffic.
type vipState struct {
	ads     []advertisement
	traffic float64
	// applied lists the active links at the last redistribute, the
	// ones that may hold a share of this VIP to clear before reapplying.
	applied []LinkID
}

// Network is the access-connection layer state.
type Network struct {
	routers map[AccessRouterID]*AccessRouter
	borders map[BorderRouterID]*BorderRouter
	links   []*Link // indexed by LinkID; IDs are dense from AddLink

	vips map[VIPAddr]*vipState

	// RouteUpdates counts BGP route updates emitted towards the ISPs
	// (each advertise, withdraw, or padding change is one update). The
	// paper's selective-VIP-exposure knob exists precisely to keep this
	// number low; E4 reports it.
	RouteUpdates int64

	// OnRouteChange, when set, is called after any advertisement change
	// for a VIP (advertise, withdraw, padding flip). The platform uses it
	// to mark the VIP's owner dirty for incremental demand propagation.
	OnRouteChange func(vip VIPAddr)
}

// Errors returned by network operations.
var (
	ErrUnknownLink = errors.New("netmodel: unknown link")
	ErrNoRoute     = errors.New("netmodel: VIP has no active route")
	ErrDupAd       = errors.New("netmodel: VIP already advertised on link")
)

// New returns an empty access network.
func New() *Network {
	return &Network{
		routers: make(map[AccessRouterID]*AccessRouter),
		borders: make(map[BorderRouterID]*BorderRouter),
		vips:    make(map[VIPAddr]*vipState),
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
		shares: make(map[VIPAddr]float64)}
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

// Router returns the access router with the given ID, or nil.
func (n *Network) Router(id AccessRouterID) *AccessRouter { return n.routers[id] }

// NumRouters returns the number of access routers.
func (n *Network) NumRouters() int { return len(n.routers) }

// NumBorders returns the number of border routers.
func (n *Network) NumBorders() int { return len(n.borders) }

// vip returns vip's record, creating it when absent.
func (n *Network) vip(vip VIPAddr) *vipState {
	st := n.vips[vip]
	if st == nil {
		st = &vipState{}
		n.vips[vip] = st
	}
	return st
}

// routeChanged respreads vip's traffic after an advertisement change and
// notifies the route-change hook.
func (n *Network) routeChanged(vip VIPAddr, st *vipState) {
	n.RouteUpdates++
	n.redistribute(vip, st)
	if n.OnRouteChange != nil {
		n.OnRouteChange(vip)
	}
}

// Advertise announces vip over the given link. If padded is true the
// route is AS-path padded: it provides reachability as a backup but
// attracts no new traffic.
func (n *Network) Advertise(vip VIPAddr, link LinkID, padded bool) error {
	if n.Link(link) == nil {
		return fmt.Errorf("%w: %d", ErrUnknownLink, link)
	}
	st := n.vip(vip)
	for _, ad := range st.ads {
		if ad.link == link {
			return fmt.Errorf("%w: %s on %d", ErrDupAd, vip, link)
		}
	}
	st.ads = append(st.ads, advertisement{link: link, padded: padded})
	n.routeChanged(vip, st)
	return nil
}

// Withdraw removes vip's route from the given link.
func (n *Network) Withdraw(vip VIPAddr, link LinkID) error {
	if st := n.vips[vip]; st != nil {
		for i, ad := range st.ads {
			if ad.link == link {
				st.ads = slices.Delete(st.ads, i, i+1)
				n.routeChanged(vip, st)
				return nil
			}
		}
	}
	return fmt.Errorf("%w: %s not on link %d", ErrNoRoute, vip, link)
}

// SetPadded changes the padding state of an existing advertisement; this
// is the "advertise padded AS paths through the old routers before
// withdrawing" transition step of the naive baseline.
func (n *Network) SetPadded(vip VIPAddr, link LinkID, padded bool) error {
	if st := n.vips[vip]; st != nil {
		for i, ad := range st.ads {
			if ad.link == link {
				if ad.padded != padded {
					st.ads[i].padded = padded
					n.routeChanged(vip, st)
				}
				return nil
			}
		}
	}
	return fmt.Errorf("%w: %s not on link %d", ErrNoRoute, vip, link)
}

// ads returns vip's advertisements (nil when it has none).
func (n *Network) ads(vip VIPAddr) []advertisement {
	if st := n.vips[vip]; st != nil {
		return st.ads
	}
	return nil
}

// ActiveLinks returns the links carrying vip (unpadded advertisements),
// sorted by LinkID.
func (n *Network) ActiveLinks(vip VIPAddr) []LinkID {
	var out []LinkID
	for _, ad := range n.ads(vip) {
		if !ad.padded {
			out = append(out, ad.link)
		}
	}
	slices.Sort(out)
	return out
}

// RouteCounts returns how many active (unpadded) routes vip has and how
// many of them terminate on serving links, without allocating — the
// reachability inputs the demand-propagation hot path needs.
func (n *Network) RouteCounts(vip VIPAddr) (active, serving int) {
	for _, ad := range n.ads(vip) {
		if ad.padded {
			continue
		}
		active++
		if n.links[ad.link].Serving() {
			serving++
		}
	}
	return active, serving
}

// AllLinks returns every link vip is advertised on, padded or not.
func (n *Network) AllLinks(vip VIPAddr) []LinkID {
	var out []LinkID
	for _, ad := range n.ads(vip) {
		out = append(out, ad.link)
	}
	slices.Sort(out)
	return out
}

// SetVIPTraffic sets the external traffic attributed to vip in Mbps. The
// traffic is carried by vip's active links, split equally (external BGP
// splits coarse-grained; the paper controls balance at the granularity of
// whole VIPs via DNS, not per-link ratios).
func (n *Network) SetVIPTraffic(vip VIPAddr, mbps float64) error {
	if mbps < 0 {
		return fmt.Errorf("netmodel: negative traffic %v", mbps)
	}
	st := n.vips[vip]
	if mbps == 0 {
		if st == nil {
			return nil
		}
		mbps = 0 // -0 is stored as +0
	} else if st == nil {
		st = n.vip(vip)
	}
	st.traffic = mbps
	n.redistribute(vip, st)
	return nil
}

// VIPTraffic returns the external traffic attributed to vip.
func (n *Network) VIPTraffic(vip VIPAddr) float64 {
	if st := n.vips[vip]; st != nil {
		return st.traffic
	}
	return 0
}

// redistribute incrementally updates link loads for one VIP: it removes
// the VIP's previous contribution and applies the contribution implied
// by the current traffic and active-link set. Incremental updates keep
// SetVIPTraffic O(links-per-VIP) so experiments can carry tens of
// thousands of VIPs. The previous link slice is reused so steady-state
// traffic updates do not allocate. A record left with no advertisement
// and no traffic is dropped.
func (n *Network) redistribute(vip VIPAddr, st *vipState) {
	for _, id := range st.applied {
		n.links[id].clearShare(vip)
	}
	links := st.applied[:0]
	for _, ad := range st.ads {
		if !ad.padded {
			links = append(links, ad.link)
		}
	}
	slices.Sort(links)
	st.applied = links
	if st.traffic == 0 || len(links) == 0 {
		if len(st.ads) == 0 && st.traffic == 0 {
			delete(n.vips, vip)
		}
		return
	}
	share := st.traffic / float64(len(links))
	for _, id := range links {
		n.links[id].setShare(vip, share)
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

// VIPsOnLink returns the VIPs actively carried by the link, sorted.
func (n *Network) VIPsOnLink(link LinkID) []VIPAddr {
	var out []VIPAddr
	for vip, st := range n.vips {
		for _, ad := range st.ads {
			if ad.link == link && !ad.padded {
				out = append(out, vip)
				break
			}
		}
	}
	slices.Sort(out)
	return out
}

// CheckInvariants verifies that link loads equal the per-VIP traffic
// shares, that no advertisement references a missing link, and that no
// empty VIP record lingers.
func (n *Network) CheckInvariants() error {
	// Sorted VIP order: the expected per-link loads are float sums, so
	// the accumulation order must not depend on map iteration.
	vips := make([]VIPAddr, 0, len(n.vips))
	for vip := range n.vips {
		vips = append(vips, vip)
	}
	slices.Sort(vips)
	want := make([]float64, len(n.links))
	for _, vip := range vips {
		st := n.vips[vip]
		if len(st.ads) == 0 && st.traffic == 0 {
			return fmt.Errorf("vip %s keeps an empty record", vip)
		}
		for _, ad := range st.ads {
			if n.Link(ad.link) == nil {
				return fmt.Errorf("vip %s advertised on missing link %d", vip, ad.link)
			}
		}
		active := n.ActiveLinks(vip)
		if st.traffic > 0 && len(active) > 0 {
			share := st.traffic / float64(len(active))
			for _, id := range active {
				want[id] += share
			}
		}
	}
	for _, l := range n.links {
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
