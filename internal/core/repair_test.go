package core

import (
	"testing"

	"megadc/internal/health"
	"megadc/internal/ipv4"
	"megadc/internal/lbswitch"
	"megadc/internal/netmodel"
)

// Repair must restore the exact pre-failure capacity/limits of every
// failure domain, bit for bit.
func TestRepairRestoresExactPreFailureState(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	app, err := p.OnboardApp("a", defaultSlice(), 4, Demand{CPU: 4, Mbps: 200})
	if err != nil {
		t.Fatal(err)
	}

	srvID := p.Cluster.VM(app.VMIDs()[0]).Server
	srv := p.Cluster.Server(srvID)
	wantCap := srv.Capacity
	if _, err := p.FailServer(srvID); err != nil {
		t.Fatal(err)
	}
	if !srv.Capacity.IsZero() {
		t.Error("detected server still has capacity")
	}
	if srv.Health != health.Repairing {
		t.Errorf("server health = %v, want repairing", srv.Health)
	}
	if err := p.RepairServer(srvID); err != nil {
		t.Fatal(err)
	}
	if srv.Capacity != wantCap {
		t.Errorf("repaired capacity = %+v, want %+v", srv.Capacity, wantCap)
	}
	if !srv.Serving() {
		t.Errorf("repaired server health = %v", srv.Health)
	}

	sw := p.Fabric.Switch(0)
	wantLimits := sw.Limits
	if _, _, err := p.FailSwitch(0); err != nil {
		t.Fatal(err)
	}
	if sw.Limits != (lbswitch.Limits{}) {
		t.Error("detected switch still has limits")
	}
	if err := p.RepairSwitch(0); err != nil {
		t.Fatal(err)
	}
	if sw.Limits != wantLimits {
		t.Errorf("repaired limits = %+v, want %+v", sw.Limits, wantLimits)
	}
	if !sw.Serving() {
		t.Errorf("repaired switch health = %v", sw.Health)
	}

	link := p.Net.Link(0)
	wantMbps := link.CapacityMbps
	if _, err := p.FailLink(0); err != nil {
		t.Fatal(err)
	}
	if link.CapacityMbps != 0 {
		t.Errorf("detected link capacity = %v, want 0", link.CapacityMbps)
	}
	if err := p.RepairLink(0); err != nil {
		t.Fatal(err)
	}
	if link.CapacityMbps != wantMbps {
		t.Errorf("repaired link capacity = %v, want %v", link.CapacityMbps, wantMbps)
	}
	if !link.Serving() {
		t.Errorf("repaired link health = %v", link.Health)
	}

	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
	// After full repair the control loops can restore satisfaction.
	if deploys := p.RecoverLostCapacity(0.99, 8); deploys == 0 {
		t.Error("no replacement deployed after repair")
	}
	if got := p.AppSatisfaction(app.ID); got < 0.99 {
		t.Errorf("satisfaction after repair = %v", got)
	}
}

// Double fault, double detect, and double repair are all no-ops; repair
// of a healthy component is a no-op; unknown ids are errors.
func TestFaultDetectRepairIdempotency(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	app, err := p.OnboardApp("a", defaultSlice(), 4, Demand{CPU: 2, Mbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	srvID := p.Cluster.VM(app.VMIDs()[0]).Server
	srv := p.Cluster.Server(srvID)
	wantCap := srv.Capacity

	if err := p.RepairServer(srvID); err != nil {
		t.Errorf("repairing a healthy server: %v", err)
	}
	if _, err := p.DetectServer(srvID); err == nil {
		t.Error("detecting a healthy server accepted")
	}
	lost, err := p.FailServer(srvID)
	if err != nil || lost == 0 {
		t.Fatalf("first fail: lost=%d err=%v", lost, err)
	}
	if err := p.FaultServer(srvID); err != nil {
		t.Errorf("double fault: %v", err)
	}
	if lost, err := p.FailServer(srvID); err != nil || lost != 0 {
		t.Errorf("double fail: lost=%d err=%v", lost, err)
	}
	if err := p.RepairServer(srvID); err != nil {
		t.Fatal(err)
	}
	if err := p.RepairServer(srvID); err != nil {
		t.Errorf("double repair: %v", err)
	}
	if srv.Capacity != wantCap {
		t.Errorf("capacity after double repair = %+v, want %+v", srv.Capacity, wantCap)
	}

	if err := p.FaultServer(9999); err == nil {
		t.Error("faulting unknown server accepted")
	}
	if _, err := p.DetectServer(9999); err == nil {
		t.Error("detecting unknown server accepted")
	}
	if err := p.RepairServer(9999); err == nil {
		t.Error("repairing unknown server accepted")
	}
	if err := p.FaultSwitch(9999); err == nil {
		t.Error("faulting unknown switch accepted")
	}
	if err := p.RepairSwitch(9999); err == nil {
		t.Error("repairing unknown switch accepted")
	}
	if err := p.FaultLink(9999); err == nil {
		t.Error("faulting unknown link accepted")
	}
	if err := p.RepairLink(9999); err == nil {
		t.Error("repairing unknown link accepted")
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}

// During the undetected window a fault black-holes served demand but
// the control plane must not react: VMs stay placed, capacity reads
// normal, no routes change, and the running control loops do nothing.
// Only detection triggers the reaction.
func TestDetectionDelayOrdering(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	app, err := p.OnboardApp("a", defaultSlice(), 4, Demand{CPU: 4, Mbps: 200})
	if err != nil {
		t.Fatal(err)
	}
	p.Start()
	p.Eng.RunUntil(100)
	if got := p.AppSatisfaction(app.ID); got < 0.99 {
		t.Fatalf("unhealthy steady state: %v", got)
	}

	srvID := p.Cluster.VM(app.VMIDs()[0]).Server
	srv := p.Cluster.Server(srvID)
	nVMs := srv.NumVMs()
	wantCap := srv.Capacity
	updates := p.Net.RouteUpdates
	deploys := totalDeploys(p)

	if err := p.FaultServer(srvID); err != nil {
		t.Fatal(err)
	}
	if sat := p.AppSatisfaction(app.ID); sat >= 0.99 {
		t.Errorf("satisfaction %v despite black-holed server", sat)
	}
	// Let every control loop run several times before detection.
	p.Eng.RunFor(90)
	if srv.NumVMs() != nVMs {
		t.Errorf("VMs on faulted server changed before detection: %d -> %d", nVMs, srv.NumVMs())
	}
	if srv.Capacity != wantCap {
		t.Errorf("capacity changed before detection: %+v", srv.Capacity)
	}
	if p.Net.RouteUpdates != updates {
		t.Errorf("routes changed before detection: %d -> %d", updates, p.Net.RouteUpdates)
	}
	if got := totalDeploys(p); got != deploys {
		t.Errorf("control loops deployed before detection: %d -> %d", deploys, got)
	}

	lost, err := p.DetectServer(srvID)
	if err != nil {
		t.Fatal(err)
	}
	if lost != nVMs {
		t.Errorf("detection removed %d VMs, want %d", lost, nVMs)
	}
	if !srv.Capacity.IsZero() {
		t.Error("capacity not zeroed at detection")
	}
	// Now the loops see the loss and deploy a replacement.
	p.Eng.RunFor(600)
	if totalDeploys(p) == deploys {
		t.Error("control loops never reacted after detection")
	}
	if err := p.RepairServer(srvID); err != nil {
		t.Fatal(err)
	}
	p.Eng.RunFor(300)
	if got := p.AppSatisfaction(app.ID); got < 0.99 {
		t.Errorf("satisfaction after repair = %v", got)
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}

// totalDeploys sums deployments across the global manager and every
// pod manager's local scale-out.
func totalDeploys(p *Platform) int64 {
	n := p.Global.Deployments
	for _, pm := range p.PodManagers() {
		n += pm.LocalDeploys
	}
	return n
}

// healthiestSwitchFor must report an export error rather than
// swallowing it into "no capacity".
func TestHealthiestSwitchForReportsExportError(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	if _, err := p.OnboardApp("a", defaultSlice(), 2, Demand{CPU: 1, Mbps: 50}); err != nil {
		t.Fatal(err)
	}
	sw := p.Fabric.Switch(0)
	if _, err := p.healthiestSwitchFor(sw, ipv4.MustParse("203.0.113.99")); err == nil {
		t.Error("export error swallowed for a VIP the switch does not carry")
	}
}

// A switch that died with no spare fabric capacity drops its VIPs;
// repairing it must re-home the orphans, rebuild their RIP groups, and
// re-expose them.
func TestRepairSwitchRehomesOrphanedVIPs(t *testing.T) {
	topo := SmallTopology()
	topo.Switches = 1
	cfg := testConfig()
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, err := p.OnboardApp("a", defaultSlice(), 4, Demand{CPU: 2, Mbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	nVIPs := len(p.DNS.VIPs(app.ID))
	rehomed, dropped, err := p.FailSwitch(0)
	if err != nil {
		t.Fatal(err)
	}
	if rehomed != 0 || dropped != nVIPs {
		t.Fatalf("rehomed=%d dropped=%d, want 0/%d", rehomed, dropped, nVIPs)
	}
	if sat := p.AppSatisfaction(app.ID); sat > 0.01 {
		t.Errorf("satisfaction %v with every VIP dropped", sat)
	}

	if err := p.RepairSwitch(0); err != nil {
		t.Fatal(err)
	}
	sw := p.Fabric.Switch(0)
	if sw.NumVIPs() != nVIPs {
		t.Errorf("repaired switch homes %d VIPs, want %d", sw.NumVIPs(), nVIPs)
	}
	for _, vip := range p.DNS.VIPs(app.ID) {
		if _, ok := p.Fabric.HomeOf(vip); !ok {
			t.Errorf("VIP %s still orphaned after repair", vip)
		}
	}
	vips, weights, err := p.DNS.Weights(app.ID)
	if err != nil {
		t.Fatal(err)
	}
	exposed := 0
	for i := range vips {
		if weights[i] > 0 {
			exposed++
		}
	}
	if exposed == 0 {
		t.Error("no VIP re-exposed after repair")
	}
	if sat := p.AppSatisfaction(app.ID); sat < 0.99 {
		t.Errorf("satisfaction after switch repair = %v", sat)
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}

// When every link is down, detected VIP routes vanish entirely;
// repairing a link must re-advertise the dark VIPs over it.
func TestRepairLinkReadvertisesDarkVIPs(t *testing.T) {
	topo := SmallTopology()
	topo.ISPs = 1
	topo.LinksPerISP = 1
	cfg := testConfig()
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, err := p.OnboardApp("a", defaultSlice(), 4, Demand{CPU: 2, Mbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	readv, err := p.FailLink(0)
	if err != nil {
		t.Fatal(err)
	}
	if readv != 0 {
		t.Errorf("re-advertised %d VIPs with no other link", readv)
	}
	for _, vip := range p.DNS.VIPs(app.ID) {
		if n := len(p.Net.ActiveLinks(p.handleOf(vip))); n != 0 {
			t.Errorf("VIP %s kept %d active links", vip, n)
		}
	}
	if sat := p.AppSatisfaction(app.ID); sat > 0.01 {
		t.Errorf("satisfaction %v with the only link down", sat)
	}

	if err := p.RepairLink(0); err != nil {
		t.Fatal(err)
	}
	for _, vip := range p.DNS.VIPs(app.ID) {
		links := p.Net.ActiveLinks(p.handleOf(vip))
		if len(links) != 1 || links[0] != netmodel.LinkID(0) {
			t.Errorf("VIP %s active links after repair = %v", vip, links)
		}
	}
	if sat := p.AppSatisfaction(app.ID); sat < 0.99 {
		t.Errorf("satisfaction after link repair = %v", sat)
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}

// An undetected link fault black-holes only the share of traffic routed
// over the dead link: satisfaction drops without a single route update,
// and a repair before detection restores it silently (the flap case).
func TestUndetectedLinkFlapBlackholesWithoutRouteChurn(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	app, err := p.OnboardApp("a", defaultSlice(), 4, Demand{CPU: 4, Mbps: 200})
	if err != nil {
		t.Fatal(err)
	}
	if sat := p.AppSatisfaction(app.ID); sat < 0.99 {
		t.Fatalf("unhealthy steady state: %v", sat)
	}
	updates := p.Net.RouteUpdates
	if err := p.FaultLink(0); err != nil {
		t.Fatal(err)
	}
	if sat := p.AppSatisfaction(app.ID); sat >= 0.99 {
		t.Errorf("satisfaction %v despite a black-holed link", sat)
	}
	if p.Net.RouteUpdates != updates {
		t.Errorf("undetected fault issued route updates: %d -> %d", updates, p.Net.RouteUpdates)
	}
	if err := p.RepairLink(0); err != nil {
		t.Fatal(err)
	}
	if sat := p.AppSatisfaction(app.ID); sat < 0.99 {
		t.Errorf("satisfaction after flap cleared = %v", sat)
	}
	if p.Net.RouteUpdates != updates {
		t.Errorf("flap repair issued route updates: %d -> %d", updates, p.Net.RouteUpdates)
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}
