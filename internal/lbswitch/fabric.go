package lbswitch

import (
	"errors"
	"fmt"
	"slices"

	"megadc/internal/cluster"
	"megadc/internal/ids"
	"megadc/internal/trace"
)

// Fabric is the load-balancing layer: the pool of LB switches shared
// globally by all applications (paper Section III-C). It maintains the
// VIP → switch index and implements dynamic VIP transfer between switches
// (knob B, Section IV-B): because every LB switch connects to every
// border router, a VIP can be moved internally with no external route
// re-advertisement.
//
// The fabric owns the VIP address table (DESIGN.md §22): it gives every
// VIP a dense handle the first time the address is placed, and it is
// the only place that maps address ↔ handle. A VIP's home is the switch
// its table entry sits on, so the handle-taking methods (Home, SetLoad,
// Load, GroupOf) reach it without hashing the address.
type Fabric struct {
	switches []*Switch // indexed by SwitchID (dense, assigned by AddSwitch)
	tab      *vipTable
	appVIPs  [][]ids.Index // per-app VIP handles, indexed by AppID

	// spareVIPs is room set aside by Reserve for the VIP lists of apps
	// not yet placed, which their first PlaceVIP takes.
	spareVIPs ids.Spare[ids.Index]

	// Transfers counts successful dynamic VIP transfers; BrokenConns
	// counts connections broken by forced transfers.
	Transfers   int64
	BrokenConns int64

	tracer *trace.Recorder
}

// SetTracer attaches the flight recorder to the fabric's structural
// operations (place, drop, transfer). A nil recorder disables tracing.
func (f *Fabric) SetTracer(r *trace.Recorder) { f.tracer = r }

// ErrVIPExists is returned when adding a VIP that is already homed.
var ErrVIPExists = errors.New("lbswitch: VIP already homed in fabric")

// ErrVIPUnknown is returned for operations on a VIP the fabric does not know.
var ErrVIPUnknown = errors.New("lbswitch: VIP not homed in fabric")

// NewFabric returns an empty fabric.
func NewFabric() *Fabric { return &Fabric{tab: newVIPTable(0)} }

// Reserve readies the fabric for a bulk build of apps applications
// placing perApp VIPs each, with ripsPerVIP RIPs in each VIP's group:
// the address table gets room for their handles, and their entries,
// RIP groups and per-app VIP lists are carved from one allocation per
// kind as they are placed. Every carved list is capacity-limited, so
// one that outgrows its room regrows into an allocation of its own.
// Reserve changes no membership or order, only capacity.
func (f *Fabric) Reserve(apps, perApp, ripsPerVIP int) {
	f.tab.reserve(apps*perApp, ripsPerVIP)
	f.appVIPs = slices.Grow(f.appVIPs, apps)
	f.spareVIPs = ids.NewSpare[ids.Index](apps, perApp)
}

// AddSwitch creates a switch with the given limits and adds it to the pool.
func (f *Fabric) AddSwitch(limits Limits) *Switch {
	id := SwitchID(len(f.switches))
	sw := newSwitch(id, limits, f.tab)
	f.switches = append(f.switches, sw)
	return sw
}

// Switch returns the switch with the given ID, or nil.
func (f *Fabric) Switch(id SwitchID) *Switch {
	if id < 0 || int(id) >= len(f.switches) {
		return nil
	}
	return f.switches[id]
}

// Switches returns all switches in creation order. The slice is a copy;
// hot paths should index with Switch(id) for id in [0, NumSwitches)
// instead to avoid the allocation.
func (f *Fabric) Switches() []*Switch {
	out := make([]*Switch, len(f.switches))
	copy(out, f.switches)
	return out
}

// NumSwitches returns the number of switches in the pool.
func (f *Fabric) NumSwitches() int { return len(f.switches) }

// NumVIPs returns the number of VIPs homed in the fabric.
func (f *Fabric) NumVIPs() int { return f.tab.live }

// NumRIPs returns the total RIP entries across all switches.
func (f *Fabric) NumRIPs() int {
	n := 0
	for _, s := range f.switches {
		n += s.NumRIPs()
	}
	return n
}

// Handle returns vip's handle, or false when vip was never placed. A
// handle outlives its VIP's removal: placing the address again reuses it.
func (f *Fabric) Handle(vip VIP) (ids.Index, bool) {
	h, ok := f.tab.ix[vip]
	return h, ok
}

// Addr returns the address of handle h. It panics when h was never
// assigned, exactly like an out-of-range slice index.
func (f *Fabric) Addr(h ids.Index) VIP { return f.tab.addrs[h] }

// HomeOf returns the switch currently hosting vip.
func (f *Fabric) HomeOf(vip VIP) (SwitchID, bool) {
	if e := f.tab.lookup(vip); e != nil {
		return e.sw.ID, true
	}
	return 0, false
}

// Home returns the switch currently hosting the VIP with handle h. It
// reads only the table's home column: requests, sessions and the
// managers call it per event.
func (f *Fabric) Home(h ids.Index) (SwitchID, bool) {
	if h < 0 || int(h) >= len(f.tab.slot) || f.tab.slot[h].home == noSwitch {
		return 0, false
	}
	return f.tab.slot[h].home, true
}

// Seq returns the insertion sequence of the VIP with handle h on its
// home switch (Switch.VIPSeq by handle), with no address lookup.
func (f *Fabric) Seq(h ids.Index) (uint64, bool) {
	if e := f.tab.at(h); e != nil {
		return e.seq, true
	}
	return 0, false
}

// SetLoad sets the fluid offered load of the VIP with handle h on its
// home switch (Switch.SetVIPLoad by handle). An unhomed VIP returns
// ErrVIPUnknown itself, unwrapped, so callers that skip unhomed VIPs
// pay no allocation.
func (f *Fabric) SetLoad(h ids.Index, mbps float64) error {
	e := f.tab.at(h)
	if e == nil {
		return ErrVIPUnknown
	}
	return e.setLoad(mbps)
}

// Load returns the fluid offered load of the VIP with handle h (0 when
// it is not homed).
func (f *Fabric) Load(h ids.Index) float64 {
	if e := f.tab.at(h); e != nil {
		return e.loadMbps
	}
	return 0
}

// GroupOf returns the RIP group of the VIP with handle h on its home
// switch, or false when the VIP is not homed. Demand propagation reads
// each RIP's weight and tag through it in place, with no copy.
func (f *Fabric) GroupOf(h ids.Index) (Group, bool) {
	e := f.tab.at(h)
	return Group{e}, e != nil
}

// PlaceVIP configures vip for app on the given switch, assigning vip's
// handle on first placement.
func (f *Fabric) PlaceVIP(vip VIP, app cluster.AppID, sw SwitchID) error {
	if f.tab.lookup(vip) != nil {
		return fmt.Errorf("%w: %s", ErrVIPExists, vip)
	}
	if app < 0 {
		return fmt.Errorf("lbswitch: VIP %s for negative app %d", vip, app)
	}
	s := f.Switch(sw)
	if s == nil {
		return fmt.Errorf("lbswitch: no switch %d", sw)
	}
	if err := s.AddVIP(vip, app); err != nil {
		return err
	}
	if n := int(app) + 1; n > len(f.appVIPs) {
		f.appVIPs = slices.Grow(f.appVIPs, n-len(f.appVIPs))[:n] // room past len is nil: the index never shrinks
	}
	if f.appVIPs[app] == nil {
		f.appVIPs[app] = f.spareVIPs.Take()
	}
	f.appVIPs[app] = append(f.appVIPs[app], f.tab.ix[vip])
	f.tracer.Record(trace.EvPlaceVIP, 0, 0, trace.VIP(vip), trace.App(app), trace.SwitchRef(sw))
	return nil
}

// DropVIP removes vip from its home switch. Active connections block the
// removal unless force is set.
func (f *Fabric) DropVIP(vip VIP, force bool) error {
	e := f.tab.lookup(vip)
	if e == nil {
		return fmt.Errorf("%w: %s", ErrVIPUnknown, vip)
	}
	home, app, h := e.sw.ID, e.app, e.h
	broken, err := e.sw.RemoveVIP(vip, force)
	if err != nil {
		return err
	}
	f.BrokenConns += int64(broken)
	if int(app) < len(f.appVIPs) {
		if i := slices.Index(f.appVIPs[app], h); i >= 0 {
			f.appVIPs[app] = slices.Delete(f.appVIPs[app], i, i+1)
		}
	}
	f.tracer.Record(trace.EvDropVIP, float64(broken), 0, trace.VIP(vip), trace.SwitchRef(home))
	return nil
}

// TransferVIP moves vip from its current switch to switch dst, carrying
// its full RIP group, weights, and fluid load. Per the paper, a VIP
// cannot be blindly transferred while TCP sessions are using it — only
// the original switch knows their RIP bindings — so the transfer fails
// with ErrActiveConns unless either the VIP is quiescent or force is set
// (breaking the remaining sessions, whose count is tallied).
func (f *Fabric) TransferVIP(vip VIP, dst SwitchID, force bool) error {
	e := f.tab.lookup(vip)
	if e == nil {
		return fmt.Errorf("%w: %s", ErrVIPUnknown, vip)
	}
	from, home := e.sw, e.sw.ID
	if home == dst {
		return nil
	}
	to := f.Switch(dst)
	if to == nil {
		return fmt.Errorf("lbswitch: no switch %d", dst)
	}
	if e.conns > 0 && !force {
		f.tracer.RecordErr(trace.EvTransferVIP, float64(e.conns), 0,
			trace.VIP(vip), trace.SwitchRef(home), trace.SwitchRef(dst))
		return fmt.Errorf("%w: %s has %d", ErrActiveConns, vip, e.conns)
	}
	// Admission check on the destination before mutating anything.
	if to.NumVIPs() >= to.Limits.MaxVIPs {
		return fmt.Errorf("%w: switch %d", ErrVIPLimit, dst)
	}
	if to.NumRIPs()+len(e.rips) > to.Limits.MaxRIPs {
		return fmt.Errorf("%w: switch %d", ErrRIPLimit, dst)
	}
	broken, err := from.RemoveVIP(vip, force)
	if err != nil {
		return err
	}
	f.BrokenConns += int64(broken)
	// The removed entry e still holds the group; rebuild it on the
	// destination in order. Tags ride along so the platform's RIP → VM
	// resolution survives the move (bookkeeping, not reconfiguration).
	if err := to.AddVIP(vip, e.app); err != nil {
		return fmt.Errorf("lbswitch: transfer re-add failed: %w", err)
	}
	moved := f.tab.slot[e.h].e
	for _, re := range e.rips {
		if err := to.AddRIPTagged(vip, re.rip, re.weight, re.tag); err != nil {
			return fmt.Errorf("lbswitch: transfer RIP re-add failed: %w", err)
		}
	}
	if e.loadMbps > 0 {
		if err := moved.setLoad(e.loadMbps); err != nil {
			return err
		}
	}
	f.Transfers++
	f.tracer.Record(trace.EvTransferVIP, float64(broken), 0,
		trace.VIP(vip), trace.SwitchRef(home), trace.SwitchRef(dst))
	return nil
}

// VIPsOfApp returns every VIP in the fabric owned by app, in lexical
// address order (ipv4.Addr.Compare). Served
// from the per-app index, so cost scales with the app's own VIP count,
// not the fabric-wide total.
func (f *Fabric) VIPsOfApp(app cluster.AppID) []VIP {
	if app < 0 || int(app) >= len(f.appVIPs) || len(f.appVIPs[app]) == 0 {
		return nil
	}
	out := make([]VIP, 0, len(f.appVIPs[app]))
	for _, h := range f.appVIPs[app] {
		out = append(out, f.tab.addrs[h])
	}
	slices.SortFunc(out, VIP.Compare)
	return out
}

// Utilizations returns per-switch throughput utilization in switch order.
func (f *Fabric) Utilizations() []float64 {
	out := make([]float64, 0, len(f.switches))
	for _, s := range f.switches {
		out = append(out, s.Utilization())
	}
	return out
}

// TotalThroughputMbps returns the fabric-wide offered load.
func (f *Fabric) TotalThroughputMbps() float64 {
	var sum float64
	for _, s := range f.switches {
		sum += s.ThroughputMbps()
	}
	return sum
}

// AggregateCapacityMbps returns the sum of switch throughput limits —
// the paper's "600 Gbps aggregate external bandwidth" style figure.
func (f *Fabric) AggregateCapacityMbps() float64 {
	var sum float64
	for _, s := range f.switches {
		sum += s.Limits.ThroughputMbps
	}
	return sum
}

// CheckInvariants validates every switch plus the address table and
// the per-app index.
func (f *Fabric) CheckInvariants() error {
	for _, s := range f.switches {
		if s.tab != f.tab {
			return fmt.Errorf("fabric: switch %d has its own address table", s.ID)
		}
		if err := s.CheckInvariants(); err != nil {
			return err
		}
	}
	if len(f.tab.ix) != len(f.tab.addrs) || len(f.tab.slot) != len(f.tab.addrs) {
		return fmt.Errorf("fabric: address table sizes %d/%d/%d differ", len(f.tab.ix), len(f.tab.addrs), len(f.tab.slot))
	}
	live, indexed := 0, 0
	for h, sl := range f.tab.slot {
		vip, e := f.tab.addrs[h], sl.e
		if f.tab.ix[vip] != ids.Index(h) {
			return fmt.Errorf("fabric: VIP %s maps to handle %d, not %d", vip, f.tab.ix[vip], h)
		}
		want := noSwitch
		if e != nil {
			want = e.sw.ID
		}
		if sl.home != want {
			return fmt.Errorf("fabric: VIP %s home column says %d, its entry %d", vip, sl.home, want)
		}
		if e == nil {
			continue
		}
		live++
		if f.Switch(e.sw.ID) != e.sw {
			return fmt.Errorf("fabric: VIP %s homed on unknown switch %d", vip, e.sw.ID)
		}
		if int(e.app) >= len(f.appVIPs) || !slices.Contains(f.appVIPs[e.app], e.h) {
			return fmt.Errorf("fabric: VIP %s missing from app %d index", vip, e.app)
		}
	}
	for app, hs := range f.appVIPs {
		indexed += len(hs)
		for _, h := range hs {
			if e := f.tab.at(h); e == nil || e.app != cluster.AppID(app) {
				return fmt.Errorf("fabric: app %d index holds unhomed VIP %s", app, f.tab.addrs[h])
			}
		}
	}
	// Every configured VIP must be in the table exactly once, and the
	// per-app index must not hold strays.
	n := 0
	for _, s := range f.switches {
		n += s.NumVIPs()
	}
	if n != live || live != f.tab.live {
		return fmt.Errorf("fabric: %d VIPs configured on switches, %d homed", n, live)
	}
	if indexed != live {
		return fmt.Errorf("fabric: app index holds %d VIPs, %d homed", indexed, live)
	}
	return nil
}
