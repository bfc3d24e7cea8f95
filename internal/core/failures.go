package core

import (
	"fmt"
	"slices"

	"megadc/internal/cluster"
	"megadc/internal/health"
	"megadc/internal/lbswitch"
	"megadc/internal/netmodel"
	"megadc/internal/trace"
)

// Failure handling. The paper's architecture is built for fail-over:
// LB switches "achieve fine-grained load balancing and fail-over among
// replicated servers", the border routers and switches are fully
// interconnected "to enhance the platform reliability", and every
// application runs replicated instances behind multiple VIPs. The three
// failure domains — servers, LB switches, access links — share one
// health state machine (see internal/health), faultDomain:
//
//	fault  — the component dies but nothing has noticed yet. Capacity
//	         and configuration stay intact (monitoring looks normal),
//	         while Propagate black-holes the work flowing through it.
//	detect — the control plane notices and runs the domain's reaction:
//	         VMs are evacuated, VIPs re-homed, or routes withdrawn and
//	         re-advertised. The component's capacity is then zeroed
//	         (it was snapshotted at fault time) and it enters Repairing.
//	repair — the component returns with its exact pre-failure capacity
//	         restored from the snapshot, and the domain's reaction
//	         reconciles: orphaned VIPs are re-homed, dark VIPs get a
//	         route again.
//
// The public Fault*/Detect*/Repair* methods are the three steps on one
// domain plus its reaction; the legacy Fail* entry points are fault
// plus immediate detection. Every step is idempotent: faulting a failed
// component, detecting a detected one, or repairing a healthy one is a
// no-op, so a fault injector and an operator can race without harm.

// faultDomain is the health state machine of one failure domain, for
// component IDs of type ID with capacity of type C. It owns everything
// the domains share: the unknown-ID and healthy-detect errors, the
// idempotent no-ops, the fault-time snapshot, the zeroing at detection
// and the exact restore at repair, the EvHealth record and the closing
// Propagate. The audit's I3 snapshot check walks it too (audit.go).
type faultDomain[ID ~int | ~int32, C comparable] struct {
	kind  string // "server", "switch" or "link", as errors and audits name it
	layer string // substrate its I3 violations are filed under
	unit  string // what audits call its capacity: "capacity" or "limits"
	verb  string // fmt verb rendering a capacity in audit text

	// get returns a component's health and capacity, or nils for an
	// unknown ID; IDs 0..n()-1 are all known (components are never
	// removed).
	get func(ID) (*health.State, *C)
	n   func() int
	ref func(ID) trace.Ref
	// changed runs when a component enters or leaves Healthy, which no
	// reconfiguration hook sees: it invalidates what depends on the
	// component serving.
	changed func(ID)
	// snap holds the pre-failure capacity of every non-healthy
	// component, taken at fault time and consumed by repair.
	snap map[ID]C
}

// fault marks a healthy component FailedUndetected and snapshots its
// capacity; faulting a failed component is a no-op.
func (d *faultDomain[ID, C]) fault(p *Platform, id ID) error {
	h, c := d.get(id)
	if h == nil {
		return fmt.Errorf("core: unknown %s %d", d.kind, id)
	}
	if *h != health.Healthy {
		return nil // already somewhere in the failure lifecycle
	}
	*h = health.FailedUndetected
	d.snap[id] = *c
	d.changed(id)
	p.traceHealth(d.ref(id), health.Healthy, health.FailedUndetected)
	p.Propagate()
	return nil
}

// detect runs react with the component FailedDetected, then zeroes its
// capacity and parks it in Repairing. Detecting a healthy component is
// an error, a detected one a no-op. When react fails, the component
// stays FailedDetected with its capacity intact and nothing propagates.
func (d *faultDomain[ID, C]) detect(p *Platform, id ID, react func() error) error {
	h, c := d.get(id)
	if h == nil {
		return fmt.Errorf("core: unknown %s %d", d.kind, id)
	}
	switch *h {
	case health.Healthy:
		return fmt.Errorf("core: %s %d is healthy, nothing to detect", d.kind, id)
	case health.FailedDetected, health.Repairing:
		return nil
	}
	*h = health.FailedDetected
	if err := react(); err != nil {
		return err
	}
	var zero C
	*c = zero
	*h = health.Repairing
	p.traceHealth(d.ref(id), health.FailedUndetected, health.Repairing)
	p.Propagate()
	return nil
}

// repair restores a failed component's snapshot exactly, returns it to
// Healthy and runs react (nil for none) to reconcile, from either
// failed state (FailedUndetected→Healthy is a flap that cleared before
// detection). Repairing a healthy component is a no-op.
func (d *faultDomain[ID, C]) repair(p *Platform, id ID, react func() error) error {
	h, c := d.get(id)
	if h == nil {
		return fmt.Errorf("core: unknown %s %d", d.kind, id)
	}
	if *h == health.Healthy {
		return nil
	}
	snap, ok := d.snap[id]
	if !ok {
		return fmt.Errorf("core: %s %d has no pre-failure snapshot", d.kind, id)
	}
	prev := *h
	*c = snap
	delete(d.snap, id)
	*h = health.Healthy
	d.changed(id)
	p.traceHealth(d.ref(id), prev, health.Healthy)
	if react != nil {
		if err := react(); err != nil {
			return err
		}
	}
	p.Propagate()
	return nil
}

// traceHealth records one component health transition on the flight
// recorder (no-op when tracing is off). The two states ride in the
// event payload; health.TransitionLabel(from, to) is their spelling.
func (p *Platform) traceHealth(ref trace.Ref, from, to health.State) {
	p.Cfg.Trace.Record(trace.EvHealth, float64(from), float64(to), ref)
}

// initFaultDomains wires the three failure domains to their substrates
// and their health-changed hooks.
func (p *Platform) initFaultDomains() {
	p.srvFaults = faultDomain[cluster.ServerID, cluster.Resources]{
		kind: "server", layer: "cluster", unit: "capacity", verb: "%v",
		get: func(id cluster.ServerID) (*health.State, *cluster.Resources) {
			if s := p.Cluster.Server(id); s != nil {
				return &s.Health, &s.Capacity
			}
			return nil, nil
		},
		n:   p.Cluster.NumServers,
		ref: trace.Server[cluster.ServerID],
		// Whether a server is healthy decides whether its VMs count as
		// serving capacity: invalidate the memoized backend CPU of
		// every switch one of them backs.
		changed: func(id cluster.ServerID) {
			for _, vm := range p.Cluster.Server(id).VMIDsView() {
				p.bumpVMBackend(vm)
			}
		},
		snap: make(map[cluster.ServerID]cluster.Resources),
	}
	p.swFaults = faultDomain[lbswitch.SwitchID, lbswitch.Limits]{
		kind: "switch", layer: "lbswitch", unit: "limits", verb: "%+v",
		get: func(id lbswitch.SwitchID) (*health.State, *lbswitch.Limits) {
			if sw := p.Fabric.Switch(id); sw != nil {
				return &sw.Health, &sw.Limits
			}
			return nil, nil
		},
		n:   p.Fabric.NumSwitches,
		ref: trace.SwitchRef[lbswitch.SwitchID],
		// Every VIP homed on the switch gains or loses reachability.
		changed: func(id lbswitch.SwitchID) {
			sw := p.Fabric.Switch(id)
			for i := 0; i < sw.NumVIPs(); i++ {
				p.markVIPDirty(sw.HandleAt(i))
			}
		},
		snap: make(map[lbswitch.SwitchID]lbswitch.Limits),
	}
	p.linkFaults = faultDomain[netmodel.LinkID, float64]{
		kind: "link", layer: "netmodel", unit: "capacity", verb: "%v",
		get: func(id netmodel.LinkID) (*health.State, *float64) {
			if l := p.Net.Link(id); l != nil {
				return &l.Health, &l.CapacityMbps
			}
			return nil, nil
		},
		n:   p.Net.NumLinks,
		ref: trace.Link[netmodel.LinkID],
		// Every VIP advertised over the link gains or loses its share
		// of reachability.
		changed: func(id netmodel.LinkID) {
			for _, vi := range p.Net.VIPsOnLink(id) {
				p.markVIPDirty(vi)
			}
		},
		snap: make(map[netmodel.LinkID]float64),
	}
}

// FaultServer marks a healthy server failed-undetected: its VMs stop
// serving (traffic to their RIPs black-holes) but the control plane has
// not noticed, so capacity and placements look untouched.
func (p *Platform) FaultServer(id cluster.ServerID) error { return p.srvFaults.fault(p, id) }

// DetectServer runs the control-plane reaction to a server fault: all
// hosted VMs are removed (their RIPs deconfigured so switches stop
// sending traffic), and the server's capacity is zeroed until repair.
// Re-deploying lost instances is the normal job of the control loops,
// which see the lost capacity and the unchanged demand. Detecting an
// already-detected failure is a no-op; detecting a healthy server is an
// error. Returns the number of VMs lost.
func (p *Platform) DetectServer(id cluster.ServerID) (lostVMs int, err error) {
	err = p.srvFaults.detect(p, id, func() error {
		// A copy, not the view: each RemoveInstance removes the VM from
		// the server's list.
		for _, vmID := range p.Cluster.Server(id).VMIDs() {
			if err := p.RemoveInstance(vmID); err != nil {
				return err
			}
			lostVMs++
		}
		return nil
	})
	return lostVMs, err
}

// RepairServer completes a server repair: the exact pre-failure
// capacity is restored from the fault-time snapshot and the server
// rejoins its pod as a healthy placement target. Repairing a healthy
// server is a no-op.
func (p *Platform) RepairServer(id cluster.ServerID) error { return p.srvFaults.repair(p, id, nil) }

// FailServer is fault plus immediate detection — the legacy entry point
// for scenarios that model detection as instantaneous. Returns the
// number of VMs lost.
func (p *Platform) FailServer(id cluster.ServerID) (lostVMs int, err error) {
	if err := p.FaultServer(id); err != nil {
		return 0, err
	}
	return p.DetectServer(id)
}

// FaultSwitch marks a healthy LB switch failed-undetected: every VIP
// homed on it black-holes its traffic while the fabric configuration
// looks untouched.
func (p *Platform) FaultSwitch(id lbswitch.SwitchID) error { return p.swFaults.fault(p, id) }

// DetectSwitch runs the control-plane reaction to a switch fault: every
// VIP homed on it is transferred (forced — the sessions are gone with
// the switch) to the least-loaded healthy switch with room. VIPs that
// cannot be re-homed anywhere are dropped from the fabric and hidden
// from DNS until capacity appears. Returns re-homed and dropped VIP
// counts.
func (p *Platform) DetectSwitch(id lbswitch.SwitchID) (rehomed, dropped int, err error) {
	err = p.swFaults.detect(p, id, func() error {
		dead := p.Fabric.Switch(id)
		for _, vip := range dead.VIPs() {
			app, _ := dead.AppOf(vip)
			dst, err := p.healthiestSwitchFor(dead, vip)
			if err != nil {
				return fmt.Errorf("core: switch %d: exporting %s: %w", id, vip, err)
			}
			if dst == nil {
				// No capacity anywhere: drop the VIP and hide it.
				if err := p.Fabric.DropVIP(vip, true); err != nil {
					return err
				}
				p.DNS.SetWeight(app, vip, 0)
				dropped++
				continue
			}
			if err := p.Fabric.TransferVIP(vip, dst.ID, true); err != nil {
				return err
			}
			rehomed++
		}
		return nil
	})
	return rehomed, dropped, err
}

// RepairSwitch completes a switch repair: the exact pre-failure limits
// are restored from the fault-time snapshot, VIPs still homed on it
// (fault never detected) regain reachability, and any VIP that was
// dropped for lack of fabric capacity (DNS still knows it, but it has
// no home) is re-homed onto the repaired switch with its RIP group
// rebuilt and its exposure reconciled. Repairing a healthy switch is a
// no-op.
func (p *Platform) RepairSwitch(id lbswitch.SwitchID) error {
	return p.swFaults.repair(p, id, func() error {
		p.rehomeOrphanVIPs(p.Fabric.Switch(id))
		return nil
	})
}

// rehomeOrphanVIPs places DNS-registered VIPs that lost their fabric
// home (dropped when a switch died with no spare capacity) onto the
// given switch, rebuilding each VIP's RIP group from the VMs homed under
// it (in RIP order, each entry tagged with its VM) and re-exposing it.
// Stops early when the switch is full; the rest stay orphaned until
// more capacity repairs. Returns the number placed.
func (p *Platform) rehomeOrphanVIPs(sw *lbswitch.Switch) (placed int) {
	for _, app := range p.DNS.Apps() {
		for _, vip := range p.DNS.VIPs(app) {
			if _, homed := p.Fabric.HomeOf(vip); homed {
				continue
			}
			if err := p.Fabric.PlaceVIP(vip, app, sw.ID); err != nil {
				return placed
			}
			var vms []cluster.VMID
			vi := p.handleOf(vip)
			for vm, home := range p.vmHome {
				if home == vi {
					vms = append(vms, cluster.VMID(vm))
				}
			}
			slices.SortFunc(vms, func(a, b cluster.VMID) int { return p.vmRIP[a].Compare(p.vmRIP[b]) })
			for _, vm := range vms {
				// Restore the RIP→VM tag the dropped switch carried.
				if err := sw.AddRIPTagged(vip, p.vmRIP[vm], 1, int32(vm)); err != nil {
					break
				}
			}
			placed++
			p.reconcileExposure(app)
		}
	}
	return placed
}

// FailSwitch is fault plus immediate detection — the legacy entry
// point. Returns re-homed and dropped VIP counts.
func (p *Platform) FailSwitch(id lbswitch.SwitchID) (rehomed, dropped int, err error) {
	if err := p.FaultSwitch(id); err != nil {
		return 0, 0, err
	}
	return p.DetectSwitch(id)
}

// healthiestSwitchFor picks the least-utilized serving switch (≠ dead)
// that can hold the VIP and its RIP group. A nil switch with nil error
// means "no capacity anywhere"; a non-nil error means the VIP is not
// configured on the dead switch — callers must not treat that as a
// capacity problem.
func (p *Platform) healthiestSwitchFor(dead *lbswitch.Switch, vip lbswitch.VIP) (*lbswitch.Switch, error) {
	if !dead.HasVIP(vip) {
		return nil, fmt.Errorf("%w: %s on switch %d", lbswitch.ErrNoSuchVIP, vip, dead.ID)
	}
	nRIPs := dead.NumRIPsOf(vip)
	var best *lbswitch.Switch
	for _, sw := range p.Fabric.Switches() {
		if sw.ID == dead.ID || !sw.Serving() {
			continue
		}
		if sw.NumVIPs() >= sw.Limits.MaxVIPs || sw.NumRIPs()+nRIPs > sw.Limits.MaxRIPs {
			continue
		}
		if best == nil || sw.Utilization() < best.Utilization() {
			best = sw
		}
	}
	return best, nil
}

// FaultLink marks a healthy access link failed-undetected: the share of
// each VIP's traffic routed over it black-holes while the routes stay
// in place.
func (p *Platform) FaultLink(id netmodel.LinkID) error { return p.linkFaults.fault(p, id) }

// DetectLink runs the control-plane reaction to a link fault: every VIP
// actively advertised over it is withdrawn and re-advertised over the
// healthiest remaining link (a route update per VIP — link failure is
// the case where re-advertising is unavoidable). The link's capacity is
// zeroed until repair. Returns the number of re-advertised VIPs.
func (p *Platform) DetectLink(id netmodel.LinkID) (readvertised int, err error) {
	err = p.linkFaults.detect(p, id, func() error {
		for _, vip := range p.Net.VIPsOnLink(id) {
			if err := p.Net.Withdraw(vip, id); err != nil {
				return err
			}
			target := p.bestHealthyLink(id)
			if target < 0 {
				continue // no serving link; VIP is unreachable until repair
			}
			if err := p.Net.Advertise(vip, netmodel.LinkID(target), false); err != nil {
				return err
			}
			readvertised++
		}
		return nil
	})
	return readvertised, err
}

// RepairLink completes a link repair: the exact pre-failure capacity is
// restored from the fault-time snapshot, VIPs still routed over the
// link (fault never detected) regain their share of reachability, and
// any VIP the DNS knows that was left with no active route (withdrawn
// during an outage with no spare link) is advertised over the repaired
// link. Repairing a healthy link is a no-op.
func (p *Platform) RepairLink(id netmodel.LinkID) error {
	return p.linkFaults.repair(p, id, func() error {
		for _, app := range p.DNS.Apps() {
			for _, vip := range p.DNS.VIPs(app) {
				vi := p.handleOf(vip)
				if len(p.Net.ActiveLinks(vi)) > 0 {
					continue
				}
				if err := p.Net.Advertise(vi, id, false); err != nil {
					return err
				}
			}
		}
		return nil
	})
}

// FailLink is fault plus immediate detection — the legacy entry point.
// Returns the number of re-advertised VIPs.
func (p *Platform) FailLink(id netmodel.LinkID) (readvertised int, err error) {
	if err := p.FaultLink(id); err != nil {
		return 0, err
	}
	return p.DetectLink(id)
}

// bestHealthyLink returns the least-utilized serving link other than
// exclude, or -1 when none serves.
func (p *Platform) bestHealthyLink(exclude netmodel.LinkID) int {
	best := -1
	bestU := 0.0
	for _, l := range p.Net.Links() {
		if l.ID == exclude || !l.Serving() {
			continue
		}
		if u := l.Utilization(); best < 0 || u < bestU {
			best, bestU = int(l.ID), u
		}
	}
	return best
}

// RecoverLostCapacity is the explicit post-failure repair pass the
// global manager can run (its normal loops also converge, but this runs
// the whole ladder immediately): for every application whose
// satisfaction dropped below target, deploy replacement instances into
// the coldest pods, up to maxDeploys.
func (p *Platform) RecoverLostCapacity(target float64, maxDeploys int) (deploys int) {
	for _, app := range p.Cluster.AppIDs() {
		for deploys < maxDeploys && p.AppSatisfaction(app) < target {
			pod, ok := p.Global.coldestPodWithRoom(uint64(app), cluster.NoPod, p.appSlice[app])
			if !ok {
				break
			}
			if _, err := p.DeployInstance(app, pod); err != nil {
				break
			}
			deploys++
			p.Propagate()
		}
	}
	return deploys
}
