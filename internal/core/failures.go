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

// traceHealth records one component health transition on the flight
// recorder (no-op when tracing is off). The two states ride in the
// event payload; health.TransitionLabel(from, to) is their spelling.
func (p *Platform) traceHealth(ref trace.Ref, from, to health.State) {
	p.Cfg.Trace.Record(trace.EvHealth, float64(from), float64(to), ref)
}

// Failure handling. The paper's architecture is built for fail-over:
// LB switches "achieve fine-grained load balancing and fail-over among
// replicated servers", the border routers and switches are fully
// interconnected "to enhance the platform reliability", and every
// application runs replicated instances behind multiple VIPs. This file
// implements the failure/repair lifecycle for the three failure domains
// as an explicit health state machine (see internal/health):
//
//	Fault*  — the component dies but nothing has noticed yet. Capacity
//	          and configuration stay intact (monitoring looks normal),
//	          while Propagate black-holes the work flowing through it.
//	Detect* — the control plane notices and reacts: VMs are evacuated,
//	          VIPs re-homed, routes withdrawn and re-advertised. The
//	          component's capacity is zeroed (after snapshotting) and it
//	          enters Repairing.
//	Repair* — the component returns with its exact pre-failure capacity
//	          restored from the snapshot, and the control plane
//	          reconciles: orphaned VIPs are re-homed, dark VIPs get a
//	          route again.
//
// The legacy Fail* entry points remain as fault-plus-immediate-detection
// wrappers. All three triads are idempotent: faulting a failed
// component, detecting a detected one, or repairing a healthy one is a
// no-op, so a fault injector and an operator can race without harm.

// FaultServer marks a healthy server failed-undetected: its VMs stop
// serving (traffic to their RIPs black-holes) but the control plane has
// not noticed, so capacity and placements look untouched.
func (p *Platform) FaultServer(id cluster.ServerID) error {
	srv := p.Cluster.Server(id)
	if srv == nil {
		return fmt.Errorf("core: unknown server %d", id)
	}
	if srv.Health != health.Healthy {
		return nil // already somewhere in the failure lifecycle
	}
	srv.Health = health.FailedUndetected
	p.srvSnap[id] = srv.Capacity
	p.bumpServerBackends(srv)
	p.traceHealth(trace.Server(id), health.Healthy, health.FailedUndetected)
	p.Propagate()
	return nil
}

// bumpServerBackends invalidates the memoized backend CPU of every
// switch a VM on srv backs: called when srv enters or leaves Healthy,
// which decides whether its VMs count as serving capacity.
func (p *Platform) bumpServerBackends(srv *cluster.Server) {
	for _, vmID := range srv.VMIDsView() {
		p.bumpVMBackend(vmID)
	}
}

// DetectServer runs the control-plane reaction to a server fault: all
// hosted VMs are removed (their RIPs deconfigured so switches stop
// sending traffic), and the server's capacity is zeroed until repair.
// Re-deploying lost instances is the normal job of the control loops,
// which see the lost capacity and the unchanged demand. Detecting an
// already-detected failure is a no-op; detecting a healthy server is an
// error. Returns the number of VMs lost.
func (p *Platform) DetectServer(id cluster.ServerID) (lostVMs int, err error) {
	srv := p.Cluster.Server(id)
	if srv == nil {
		return 0, fmt.Errorf("core: unknown server %d", id)
	}
	switch srv.Health {
	case health.Healthy:
		return 0, fmt.Errorf("core: server %d is healthy, nothing to detect", id)
	case health.FailedDetected, health.Repairing:
		return 0, nil
	}
	srv.Health = health.FailedDetected
	// A copy, not the view: each RemoveInstance removes the VM from the
	// server's list.
	for _, vmID := range srv.VMIDs() {
		if err := p.RemoveInstance(vmID); err != nil {
			return lostVMs, err
		}
		lostVMs++
	}
	srv.Capacity = cluster.Resources{}
	srv.Health = health.Repairing
	p.traceHealth(trace.Server(id), health.FailedUndetected, health.Repairing)
	p.Propagate()
	return lostVMs, nil
}

// RepairServer completes a server repair: the exact pre-failure
// capacity is restored from the fault-time snapshot and the server
// rejoins its pod as a healthy placement target. Repairing a healthy
// server is a no-op.
func (p *Platform) RepairServer(id cluster.ServerID) error {
	srv := p.Cluster.Server(id)
	if srv == nil {
		return fmt.Errorf("core: unknown server %d", id)
	}
	if srv.Health == health.Healthy {
		return nil
	}
	snap, ok := p.srvSnap[id]
	if !ok {
		return fmt.Errorf("core: server %d has no pre-failure snapshot", id)
	}
	prev := srv.Health
	srv.Capacity = snap
	delete(p.srvSnap, id)
	srv.Health = health.Healthy
	p.bumpServerBackends(srv)
	p.traceHealth(trace.Server(id), prev, health.Healthy)
	p.Propagate()
	return nil
}

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
func (p *Platform) FaultSwitch(id lbswitch.SwitchID) error {
	sw := p.Fabric.Switch(id)
	if sw == nil {
		return fmt.Errorf("core: unknown switch %d", id)
	}
	if sw.Health != health.Healthy {
		return nil
	}
	sw.Health = health.FailedUndetected
	p.swSnap[id] = sw.Limits
	p.traceHealth(trace.SwitchRef(id), health.Healthy, health.FailedUndetected)
	// A health transition is invisible to the reconfiguration hooks, so
	// mark every VIP homed on the switch dirty explicitly.
	for i := 0; i < sw.NumVIPs(); i++ {
		p.markVIPDirty(sw.HandleAt(i))
	}
	p.Propagate()
	return nil
}

// DetectSwitch runs the control-plane reaction to a switch fault: every
// VIP homed on it is transferred (forced — the sessions are gone with
// the switch) to the least-loaded healthy switch with room. VIPs that
// cannot be re-homed anywhere are dropped from the fabric and hidden
// from DNS until capacity appears. Returns re-homed and dropped VIP
// counts.
func (p *Platform) DetectSwitch(id lbswitch.SwitchID) (rehomed, dropped int, err error) {
	dead := p.Fabric.Switch(id)
	if dead == nil {
		return 0, 0, fmt.Errorf("core: unknown switch %d", id)
	}
	switch dead.Health {
	case health.Healthy:
		return 0, 0, fmt.Errorf("core: switch %d is healthy, nothing to detect", id)
	case health.FailedDetected, health.Repairing:
		return 0, 0, nil
	}
	dead.Health = health.FailedDetected
	vips := dead.VIPs()
	for _, vip := range vips {
		app, _ := dead.AppOf(vip)
		dst, err := p.healthiestSwitchFor(dead, vip)
		if err != nil {
			return rehomed, dropped, fmt.Errorf("core: switch %d: exporting %s: %w", id, vip, err)
		}
		if dst == nil {
			// No capacity anywhere: drop the VIP and hide it.
			if err := p.Fabric.DropVIP(vip, true); err != nil {
				return rehomed, dropped, err
			}
			p.DNS.SetWeight(app, vip, 0)
			dropped++
			continue
		}
		if err := p.Fabric.TransferVIP(vip, dst.ID, true); err != nil {
			return rehomed, dropped, err
		}
		rehomed++
	}
	dead.Limits = lbswitch.Limits{}
	dead.Health = health.Repairing
	p.traceHealth(trace.SwitchRef(id), health.FailedUndetected, health.Repairing)
	p.Propagate()
	return rehomed, dropped, nil
}

// RepairSwitch completes a switch repair: the exact pre-failure limits
// are restored from the fault-time snapshot, and any VIP that was
// dropped for lack of fabric capacity (DNS still knows it, but it has
// no home) is re-homed onto the repaired switch with its RIP group
// rebuilt and its exposure reconciled. Repairing a healthy switch is a
// no-op.
func (p *Platform) RepairSwitch(id lbswitch.SwitchID) error {
	sw := p.Fabric.Switch(id)
	if sw == nil {
		return fmt.Errorf("core: unknown switch %d", id)
	}
	if sw.Health == health.Healthy {
		return nil
	}
	snap, ok := p.swSnap[id]
	if !ok {
		return fmt.Errorf("core: switch %d has no pre-failure snapshot", id)
	}
	prev := sw.Health
	sw.Limits = snap
	delete(p.swSnap, id)
	sw.Health = health.Healthy
	p.traceHealth(trace.SwitchRef(id), prev, health.Healthy)
	// VIPs still homed here (fault never detected) regain reachability.
	for i := 0; i < sw.NumVIPs(); i++ {
		p.markVIPDirty(sw.HandleAt(i))
	}
	p.rehomeOrphanVIPs(sw)
	p.Propagate()
	return nil
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
				if err := sw.AddRIPTagged(vip, p.vmRIP[vm], 1, int64(vm)); err != nil {
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
func (p *Platform) FaultLink(id netmodel.LinkID) error {
	link := p.Net.Link(id)
	if link == nil {
		return fmt.Errorf("core: unknown link %d", id)
	}
	if link.Health != health.Healthy {
		return nil
	}
	link.Health = health.FailedUndetected
	p.linkSnap[id] = link.CapacityMbps
	p.traceHealth(trace.Link(id), health.Healthy, health.FailedUndetected)
	// A health transition is invisible to the route-change hook, so mark
	// every VIP advertised over the link dirty explicitly.
	for _, vi := range p.Net.VIPsOnLink(id) {
		p.markVIPDirty(vi)
	}
	p.Propagate()
	return nil
}

// DetectLink runs the control-plane reaction to a link fault: every VIP
// actively advertised over it is withdrawn and re-advertised over the
// healthiest remaining link (a route update per VIP — link failure is
// the case where re-advertising is unavoidable). The link's capacity is
// zeroed until repair. Returns the number of re-advertised VIPs.
func (p *Platform) DetectLink(id netmodel.LinkID) (readvertised int, err error) {
	link := p.Net.Link(id)
	if link == nil {
		return 0, fmt.Errorf("core: unknown link %d", id)
	}
	switch link.Health {
	case health.Healthy:
		return 0, fmt.Errorf("core: link %d is healthy, nothing to detect", id)
	case health.FailedDetected, health.Repairing:
		return 0, nil
	}
	link.Health = health.FailedDetected
	vips := p.Net.VIPsOnLink(id)
	for _, vip := range vips {
		if err := p.Net.Withdraw(vip, id); err != nil {
			return readvertised, err
		}
		target := p.bestHealthyLink(id)
		if target < 0 {
			continue // no serving link; VIP is unreachable until repair
		}
		if err := p.Net.Advertise(vip, netmodel.LinkID(target), false); err != nil {
			return readvertised, err
		}
		readvertised++
	}
	link.CapacityMbps = 0
	link.Health = health.Repairing
	p.traceHealth(trace.Link(id), health.FailedUndetected, health.Repairing)
	p.Propagate()
	return readvertised, nil
}

// RepairLink completes a link repair: the exact pre-failure capacity is
// restored from the fault-time snapshot, and any VIP the DNS knows that
// was left with no active route (withdrawn during an outage with no
// spare link) is advertised over the repaired link. Repairing a healthy
// link is a no-op.
func (p *Platform) RepairLink(id netmodel.LinkID) error {
	link := p.Net.Link(id)
	if link == nil {
		return fmt.Errorf("core: unknown link %d", id)
	}
	if link.Health == health.Healthy {
		return nil
	}
	snap, ok := p.linkSnap[id]
	if !ok {
		return fmt.Errorf("core: link %d has no pre-failure snapshot", id)
	}
	prev := link.Health
	link.CapacityMbps = snap
	delete(p.linkSnap, id)
	link.Health = health.Healthy
	p.traceHealth(trace.Link(id), prev, health.Healthy)
	// VIPs still routed over the link (fault never detected) regain
	// their share of reachability.
	for _, vi := range p.Net.VIPsOnLink(id) {
		p.markVIPDirty(vi)
	}
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
	p.Propagate()
	return nil
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
