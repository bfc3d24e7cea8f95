package lbswitch

import (
	"errors"
	"fmt"
	"slices"

	"megadc/internal/cluster"
	"megadc/internal/trace"
)

// Fabric is the load-balancing layer: the pool of LB switches shared
// globally by all applications (paper Section III-C). It maintains the
// VIP → switch index and implements dynamic VIP transfer between switches
// (knob B, Section IV-B): because every LB switch connects to every
// border router, a VIP can be moved internally with no external route
// re-advertisement.
type Fabric struct {
	switches []*Switch // indexed by SwitchID (dense, assigned by AddSwitch)
	vipHome  map[VIP]SwitchID
	appVIPs  map[cluster.AppID]map[VIP]struct{} // per-app VIP index

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
func NewFabric() *Fabric {
	return &Fabric{
		vipHome: make(map[VIP]SwitchID),
		appVIPs: make(map[cluster.AppID]map[VIP]struct{}),
	}
}

// AddSwitch creates a switch with the given limits and adds it to the pool.
func (f *Fabric) AddSwitch(limits Limits) *Switch {
	id := SwitchID(len(f.switches))
	sw := NewSwitch(id, limits)
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
func (f *Fabric) NumVIPs() int { return len(f.vipHome) }

// NumRIPs returns the total RIP entries across all switches.
func (f *Fabric) NumRIPs() int {
	n := 0
	for _, s := range f.switches {
		n += s.NumRIPs()
	}
	return n
}

// HomeOf returns the switch currently hosting vip.
func (f *Fabric) HomeOf(vip VIP) (SwitchID, bool) {
	id, ok := f.vipHome[vip]
	return id, ok
}

// PlaceVIP configures vip for app on the given switch and records the
// home mapping.
func (f *Fabric) PlaceVIP(vip VIP, app cluster.AppID, sw SwitchID) error {
	if _, ok := f.vipHome[vip]; ok {
		return fmt.Errorf("%w: %s", ErrVIPExists, vip)
	}
	s := f.Switch(sw)
	if s == nil {
		return fmt.Errorf("lbswitch: no switch %d", sw)
	}
	if err := s.AddVIP(vip, app); err != nil {
		return err
	}
	f.vipHome[vip] = sw
	set := f.appVIPs[app]
	if set == nil {
		set = make(map[VIP]struct{})
		f.appVIPs[app] = set
	}
	set[vip] = struct{}{}
	f.tracer.Record(trace.EvPlaceVIP, 0, 0, trace.VIP(vip), trace.App(app), trace.SwitchRef(sw))
	return nil
}

// DropVIP removes vip from its home switch. Active connections block the
// removal unless force is set.
func (f *Fabric) DropVIP(vip VIP, force bool) error {
	home, ok := f.vipHome[vip]
	if !ok {
		return fmt.Errorf("%w: %s", ErrVIPUnknown, vip)
	}
	sw := f.Switch(home)
	app, hasApp := sw.AppOf(vip)
	broken, err := sw.RemoveVIP(vip, force)
	if err != nil {
		return err
	}
	f.BrokenConns += int64(broken)
	delete(f.vipHome, vip)
	if hasApp {
		if set := f.appVIPs[app]; set != nil {
			delete(set, vip)
			if len(set) == 0 {
				delete(f.appVIPs, app)
			}
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
	home, ok := f.vipHome[vip]
	if !ok {
		return fmt.Errorf("%w: %s", ErrVIPUnknown, vip)
	}
	if home == dst {
		return nil
	}
	to := f.Switch(dst)
	if to == nil {
		return fmt.Errorf("lbswitch: no switch %d", dst)
	}
	from := f.Switch(home)
	app, rips, weights, load, err := from.ExportVIP(vip)
	if err != nil {
		return err
	}
	// Carry the opaque RIP tags across the transfer so the platform's
	// dense RIP → VM resolution survives VIP moves (same package, so the
	// entry is reachable directly; this is bookkeeping, not reconfig).
	tags := make([]int64, 0, len(rips))
	for _, re := range from.vips[vip].rips {
		tags = append(tags, re.tag)
	}
	if from.VIPConns(vip) > 0 && !force {
		f.tracer.RecordErr(trace.EvTransferVIP, float64(from.VIPConns(vip)), 0,
			trace.VIP(vip), trace.SwitchRef(home), trace.SwitchRef(dst))
		return fmt.Errorf("%w: %s has %d", ErrActiveConns, vip, from.VIPConns(vip))
	}
	// Admission check on the destination before mutating anything.
	if to.NumVIPs() >= to.Limits.MaxVIPs {
		return fmt.Errorf("%w: switch %d", ErrVIPLimit, dst)
	}
	if to.NumRIPs()+len(rips) > to.Limits.MaxRIPs {
		return fmt.Errorf("%w: switch %d", ErrRIPLimit, dst)
	}
	broken, err := from.RemoveVIP(vip, force)
	if err != nil {
		return err
	}
	f.BrokenConns += int64(broken)
	if err := to.AddVIP(vip, app); err != nil {
		return fmt.Errorf("lbswitch: transfer re-add failed: %w", err)
	}
	for i, rip := range rips {
		if err := to.AddRIP(vip, rip, weights[i]); err != nil {
			return fmt.Errorf("lbswitch: transfer RIP re-add failed: %w", err)
		}
		to.setTag(to.vips[vip].ripIndex[rip], tags[i])
	}
	if load > 0 {
		if err := to.SetVIPLoad(vip, load); err != nil {
			return err
		}
	}
	f.vipHome[vip] = dst
	f.Transfers++
	f.tracer.Record(trace.EvTransferVIP, float64(broken), 0,
		trace.VIP(vip), trace.SwitchRef(home), trace.SwitchRef(dst))
	return nil
}

// VIPsOfApp returns every VIP in the fabric owned by app, sorted. Served
// from the per-app index, so cost scales with the app's own VIP count,
// not the fabric-wide total.
func (f *Fabric) VIPsOfApp(app cluster.AppID) []VIP {
	set := f.appVIPs[app]
	if len(set) == 0 {
		return nil
	}
	out := make([]VIP, 0, len(set))
	for vip := range set {
		out = append(out, vip)
	}
	slices.Sort(out)
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

// CheckInvariants validates every switch plus the home index.
func (f *Fabric) CheckInvariants() error {
	for _, s := range f.switches {
		if err := s.CheckInvariants(); err != nil {
			return err
		}
	}
	for vip, home := range f.vipHome {
		s := f.Switch(home)
		if s == nil {
			return fmt.Errorf("fabric: VIP %s homed on unknown switch %d", vip, home)
		}
		if !s.HasVIP(vip) {
			return fmt.Errorf("fabric: VIP %s homed on switch %d which lacks it", vip, home)
		}
		app, ok := s.AppOf(vip)
		if !ok {
			return fmt.Errorf("fabric: VIP %s has no owning app on switch %d", vip, home)
		}
		if _, ok := f.appVIPs[app][vip]; !ok {
			return fmt.Errorf("fabric: VIP %s missing from app %d index", vip, app)
		}
	}
	// Every configured VIP must be in the home index exactly once, and
	// the per-app index must not hold strays.
	n := 0
	for _, s := range f.switches {
		n += s.NumVIPs()
	}
	if n != len(f.vipHome) {
		return fmt.Errorf("fabric: %d VIPs configured on switches, %d homed", n, len(f.vipHome))
	}
	idx := 0
	for _, set := range f.appVIPs {
		idx += len(set)
		for vip := range set {
			if _, ok := f.vipHome[vip]; !ok {
				return fmt.Errorf("fabric: app index holds unhomed VIP %s", vip)
			}
		}
	}
	if idx != len(f.vipHome) {
		return fmt.Errorf("fabric: app index holds %d VIPs, %d homed", idx, len(f.vipHome))
	}
	return nil
}
