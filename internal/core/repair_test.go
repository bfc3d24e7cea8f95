package core

import (
	"math"
	"slices"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/health"
	"megadc/internal/ipv4"
	"megadc/internal/lbswitch"
	"megadc/internal/netmodel"
)

// lifecycleDomain drives one failure domain through the public
// lifecycle methods by integer component ID. capacity renders the
// component's capacity as float64 components, compared bit for bit.
type lifecycleDomain struct {
	name     string
	victim   func(p *Platform, app *cluster.Application) int
	fault    func(p *Platform, id int) error
	detect   func(p *Platform, id int) error
	repair   func(p *Platform, id int) error
	fail     func(p *Platform, id int) error
	state    func(p *Platform, id int) health.State
	capacity func(p *Platform, id int) []float64
}

var lifecycleDomains = []lifecycleDomain{
	{
		name: "server",
		victim: func(p *Platform, app *cluster.Application) int {
			return int(p.Cluster.VM(app.VMIDs()[0]).Server)
		},
		fault: func(p *Platform, id int) error { return p.FaultServer(cluster.ServerID(id)) },
		detect: func(p *Platform, id int) error {
			_, err := p.DetectServer(cluster.ServerID(id))
			return err
		},
		repair: func(p *Platform, id int) error { return p.RepairServer(cluster.ServerID(id)) },
		fail: func(p *Platform, id int) error {
			_, err := p.FailServer(cluster.ServerID(id))
			return err
		},
		state: func(p *Platform, id int) health.State { return p.Cluster.Server(cluster.ServerID(id)).Health },
		capacity: func(p *Platform, id int) []float64 {
			c := p.Cluster.Server(cluster.ServerID(id)).Capacity
			return []float64{c.CPU, c.MemMB, c.NetMbps}
		},
	},
	{
		name: "switch",
		victim: func(p *Platform, app *cluster.Application) int {
			home, _ := p.Fabric.HomeOf(p.Fabric.VIPsOfApp(app.ID)[0])
			return int(home)
		},
		fault: func(p *Platform, id int) error { return p.FaultSwitch(lbswitch.SwitchID(id)) },
		detect: func(p *Platform, id int) error {
			_, _, err := p.DetectSwitch(lbswitch.SwitchID(id))
			return err
		},
		repair: func(p *Platform, id int) error { return p.RepairSwitch(lbswitch.SwitchID(id)) },
		fail: func(p *Platform, id int) error {
			_, _, err := p.FailSwitch(lbswitch.SwitchID(id))
			return err
		},
		state: func(p *Platform, id int) health.State { return p.Fabric.Switch(lbswitch.SwitchID(id)).Health },
		capacity: func(p *Platform, id int) []float64 {
			l := p.Fabric.Switch(lbswitch.SwitchID(id)).Limits
			return []float64{float64(l.MaxVIPs), float64(l.MaxRIPs), l.ThroughputMbps, float64(l.MaxConns), l.MaxPPS}
		},
	},
	{
		name: "link",
		victim: func(p *Platform, _ *cluster.Application) int {
			for _, l := range p.Net.Links() {
				if len(p.Net.VIPsOnLink(l.ID)) > 0 {
					return int(l.ID)
				}
			}
			return 0
		},
		fault: func(p *Platform, id int) error { return p.FaultLink(netmodel.LinkID(id)) },
		detect: func(p *Platform, id int) error {
			_, err := p.DetectLink(netmodel.LinkID(id))
			return err
		},
		repair: func(p *Platform, id int) error { return p.RepairLink(netmodel.LinkID(id)) },
		fail: func(p *Platform, id int) error {
			_, err := p.FailLink(netmodel.LinkID(id))
			return err
		},
		state: func(p *Platform, id int) health.State { return p.Net.Link(netmodel.LinkID(id)).Health },
		capacity: func(p *Platform, id int) []float64 {
			return []float64{p.Net.Link(netmodel.LinkID(id)).CapacityMbps}
		},
	},
}

// TestFaultLifecycleContract pins the one fault lifecycle on every
// failure domain: unknown IDs are rejected by every step; a second
// fault, a second detect and the repair of a healthy component are
// no-ops, while detecting a healthy component is an error; detection
// zeroes the capacity and repair restores the fault-time capacity bit
// for bit, after detection or straight from FailedUndetected (a flap
// that cleared first). The audit is clean after every step.
func TestFaultLifecycleContract(t *testing.T) {
	for _, d := range lifecycleDomains {
		t.Run(d.name, func(t *testing.T) {
			p := newTestPlatform(t, testConfig())
			app, err := p.OnboardApp("a", defaultSlice(), 4, Demand{CPU: 2, Mbps: 200})
			if err != nil {
				t.Fatal(err)
			}
			const unknown = 9999
			for i, f := range []func(*Platform, int) error{d.fault, d.detect, d.repair, d.fail} {
				if f(p, unknown) == nil {
					t.Errorf("step %d (fault, detect, repair, fail) of unknown %s %d accepted", i, d.name, unknown)
				}
			}
			id := d.victim(p, app)
			want := d.capacity(p, id)
			zero := make([]float64, len(want))
			// check runs one lifecycle step and verifies its error,
			// whether it moved the state machine (a move propagates; an
			// error or a no-op does not), the resulting state and
			// capacity, and a clean audit.
			check := func(step string, f func(*Platform, int) error, wantErr, moves bool, st health.State, capacity []float64) {
				t.Helper()
				ticks := p.propagateTicks
				if err := f(p, id); (err != nil) != wantErr {
					t.Fatalf("%s: err = %v, want error %v", step, err, wantErr)
				}
				if moved := p.propagateTicks != ticks; moved != moves {
					t.Fatalf("%s: propagated %v, want %v", step, moved, moves)
				}
				if got := d.state(p, id); got != st {
					t.Fatalf("%s: health %v, want %v", step, got, st)
				}
				if got := d.capacity(p, id); !sameFloatBits(got, capacity) {
					t.Fatalf("%s: capacity %v, want %v", step, got, capacity)
				}
				if rep := p.Audit(); !rep.OK() {
					t.Fatalf("%s: audit:\n%s", step, rep)
				}
			}
			check("repair healthy", d.repair, false, false, health.Healthy, want)
			check("detect healthy", d.detect, true, false, health.Healthy, want)
			check("fault", d.fault, false, true, health.FailedUndetected, want)
			check("second fault", d.fault, false, false, health.FailedUndetected, want)
			check("detect", d.detect, false, true, health.Repairing, zero)
			check("second detect", d.detect, false, false, health.Repairing, zero)
			check("fault detected", d.fault, false, false, health.Repairing, zero)
			check("repair", d.repair, false, true, health.Healthy, want)
			check("second repair", d.repair, false, false, health.Healthy, want)
			check("flap fault", d.fault, false, true, health.FailedUndetected, want)
			check("flap repair", d.repair, false, true, health.Healthy, want)
			check("fail", d.fail, false, true, health.Repairing, zero)
			check("second fail", d.fail, false, false, health.Repairing, zero)
			check("repair failed", d.repair, false, true, health.Healthy, want)
		})
	}
}

// sameFloatBits compares two float vectors bit for bit.
func sameFloatBits(a, b []float64) bool {
	return slices.EqualFunc(a, b, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) })
}

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
