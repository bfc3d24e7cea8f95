package core

import (
	"math"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/metrics"
)

// TestKnobASelectiveExposureRelievesLink drives one access link past the
// overload threshold and verifies the global manager shifts DNS exposure
// to the app's other VIPs, with zero route updates (the knob's headline
// property).
func TestKnobASelectiveExposureRelievesLink(t *testing.T) {
	cfg := testConfig().WithKnobs(KnobSelectiveExposure)
	cfg.VIPsPerApp = 4            // one VIP per link
	cfg.RecycleUnusedVIPs = false // isolate knob A's zero-route-update property
	p := newTestPlatform(t, cfg)
	app, err := p.OnboardApp("app", defaultSlice(), 4, Demand{CPU: 1, Mbps: 1000})
	if err != nil {
		t.Fatal(err)
	}
	// Concentrate all exposure on one VIP → its link carries 1000 Mbps
	// (100% of capacity, above the 90% threshold).
	vips := p.DNS.VIPs(app.ID)
	if err := p.DNS.ExposeOnly(app.ID, vips[0]); err != nil {
		t.Fatal(err)
	}
	p.Propagate()
	routeUpdatesBefore := p.Net.RouteUpdates
	hotLinks := p.Net.OverloadedLinks(cfg.LinkOverloadUtil)
	if len(hotLinks) != 1 {
		t.Fatalf("setup: overloaded links = %v", hotLinks)
	}
	hot := hotLinks[0]

	g := p.Global
	// A few control iterations, letting scheduled DNS changes land.
	for i := 0; i < 5; i++ {
		g.Step()
		p.Eng.RunFor(cfg.DNSUpdateLatency + 1)
	}
	if got := p.Net.Link(hot).Utilization(); got > cfg.LinkOverloadUtil {
		t.Errorf("hot link utilization = %v, still above %v", got, cfg.LinkOverloadUtil)
	}
	if g.ExposureChanges == 0 {
		t.Error("no exposure changes recorded")
	}
	if p.Net.RouteUpdates != routeUpdatesBefore {
		t.Errorf("selective exposure issued %d route updates; want 0",
			p.Net.RouteUpdates-routeUpdatesBefore)
	}
	// Traffic is conserved: total link load still 1000.
	var total float64
	for _, l := range p.Net.LinkLoads() {
		total += l
	}
	if math.Abs(total-1000) > 1e-6 {
		t.Errorf("total link load = %v, want 1000", total)
	}
}

// TestKnobBVIPTransferRelievesSwitch overloads one LB switch and checks
// the drain-then-transfer protocol moves a VIP to an underloaded switch.
func TestKnobBVIPTransferRelievesSwitch(t *testing.T) {
	cfg := testConfig().WithKnobs(KnobVIPTransfer)
	cfg.VIPsPerApp = 1
	p := newTestPlatform(t, cfg)
	// Two apps, both VIPs forced onto switch 0 so a transfer can help.
	a0, err := p.OnboardApp("a0", defaultSlice(), 2, Demand{CPU: 0.5, Mbps: 200})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := p.OnboardApp("a1", defaultSlice(), 2, Demand{CPU: 0.5, Mbps: 200})
	if err != nil {
		t.Fatal(err)
	}
	vip0 := p.Fabric.VIPsOfApp(a0.ID)[0]
	vip1 := p.Fabric.VIPsOfApp(a1.ID)[0]
	if home, _ := p.Fabric.HomeOf(vip1); home != 0 {
		if err := p.Fabric.TransferVIP(vip1, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	if home, _ := p.Fabric.HomeOf(vip0); home != 0 {
		if err := p.Fabric.TransferVIP(vip0, 0, false); err != nil {
			t.Fatal(err)
		}
	}
	p.Propagate()
	// Switch 0 carries 400 of 400 Mbps → overloaded.
	if u := p.Fabric.Switch(0).Utilization(); u <= cfg.SwitchOverloadUtil {
		t.Fatalf("setup: switch utilization %v not overloaded", u)
	}
	routeUpdates := p.Net.RouteUpdates

	g := p.Global
	g.Step()
	// Drain takes DNS update + TTL + margin; run well past it.
	p.Eng.RunFor(p.DNS.TTL() + 5*cfg.DrainMargin + 10)

	if g.VIPTransfers == 0 {
		t.Fatal("no VIP transfer happened")
	}
	if u := p.Fabric.Switch(0).Utilization(); u > cfg.SwitchOverloadUtil {
		t.Errorf("switch 0 still overloaded: %v", u)
	}
	// Every VIP is exposed again after its transfer completes.
	for _, app := range []cluster.AppID{a0.ID, a1.ID} {
		vips, ws, _ := p.DNS.Weights(app)
		for i := range vips {
			if ws[i] == 0 {
				t.Errorf("app %d VIP %s left unexposed", app, vips[i])
			}
		}
	}
	if err := p.AuditErr(); err != nil {
		t.Error(err)
	}
	if p.Net.RouteUpdates != routeUpdates {
		t.Errorf("VIP transfer touched routing: %d updates", p.Net.RouteUpdates-routeUpdates)
	}
}

// TestKnobCServerTransfer drives one pod hot and verifies a server moves
// from an underloaded donor pod.
func TestKnobCServerTransfer(t *testing.T) {
	cfg := testConfig().WithKnobs(KnobServerTransfer)
	topo := SmallTopology()
	topo.Pods = 2
	topo.ServersPerPod = 4
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// All instances in pod 0 (deploy directly), demand > overload.
	app, err := p.OnboardApp("hot", defaultSlice(), 0, Demand{})
	if err != nil {
		t.Fatal(err)
	}
	pod0 := p.Cluster.PodIDs()[0]
	for i := 0; i < 4; i++ {
		if _, err := p.DeployInstance(app.ID, pod0); err != nil {
			t.Fatal(err)
		}
	}
	// Pod 0 capacity = 4×8 = 32 CPU; demand 30 → util 0.94 > 0.85.
	p.SetAppDemand(app.ID, Demand{CPU: 30, Mbps: 100})
	if u := p.Pod(pod0).Utilization(); u <= cfg.PodOverloadUtil {
		t.Fatalf("setup: pod util %v", u)
	}
	g := p.Global
	g.Step()
	p.Eng.RunFor(cfg.VacateLatencyPerVM*4 + cfg.VMMigrateLatency + 10)
	if g.ServerTransfers == 0 {
		t.Fatal("no server transferred")
	}
	if got := p.Cluster.Pod(pod0).NumServers(); got != 5 {
		t.Errorf("hot pod has %d servers, want 5", got)
	}
	// Utilization dropped.
	if u := p.Pod(pod0).Utilization(); u >= 0.94 {
		t.Errorf("pod util after transfer = %v", u)
	}
	if err := p.AuditErr(); err != nil {
		t.Error(err)
	}
}

// TestKnobDDeployment verifies the global manager replicates a hot pod's
// hottest app into a cold pod.
func TestKnobDDeployment(t *testing.T) {
	cfg := testConfig().WithKnobs(KnobAppDeployment)
	topo := SmallTopology()
	topo.Pods = 2
	topo.ServersPerPod = 2
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, err := p.OnboardApp("hot", defaultSlice(), 0, Demand{})
	if err != nil {
		t.Fatal(err)
	}
	pod0 := p.Cluster.PodIDs()[0]
	pod1 := p.Cluster.PodIDs()[1]
	p.DeployInstance(app.ID, pod0)
	p.DeployInstance(app.ID, pod0)
	p.SetAppDemand(app.ID, Demand{CPU: 15, Mbps: 100}) // 15/16 util in pod0
	if p.Cluster.Covers(app.ID, pod1) {
		t.Fatal("setup: app already covers pod1")
	}
	g := p.Global
	g.Step()
	p.Eng.RunFor(cfg.VMDeployLatency + 10)
	if g.Deployments == 0 {
		t.Fatal("no deployment happened")
	}
	if !p.Cluster.Covers(app.ID, pod1) {
		t.Error("app does not cover the cold pod after deployment")
	}
	if err := p.AuditErr(); err != nil {
		t.Error(err)
	}
}

// TestKnobFInterPodWeights verifies weight moves from RIPs in a hot pod
// to RIPs in a cold pod under a shared VIP, preserving the total.
func TestKnobFInterPodWeights(t *testing.T) {
	cfg := testConfig().WithKnobs(KnobRIPWeights)
	cfg.VIPsPerApp = 1
	topo := SmallTopology()
	topo.Pods = 2
	topo.ServersPerPod = 2
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, err := p.OnboardApp("app", defaultSlice(), 2, Demand{})
	if err != nil {
		t.Fatal(err)
	}
	// Round-robin onboarding put one instance in each pod. Make pod 0
	// hot with a second, dedicated app.
	pod0 := p.Cluster.PodIDs()[0]
	heavy, err := p.OnboardApp("heavy", defaultSlice(), 0, Demand{})
	if err != nil {
		t.Fatal(err)
	}
	p.DeployInstance(heavy.ID, pod0)
	p.SetAppDemand(heavy.ID, Demand{CPU: 15, Mbps: 10}) // pod0 util 15/16
	p.SetAppDemand(app.ID, Demand{CPU: 1, Mbps: 100})

	vip := p.Fabric.VIPsOfApp(app.ID)[0]
	home, _ := p.Fabric.HomeOf(vip)
	sw := p.Fabric.Switch(home)
	_, before, _ := sw.Weights(vip)
	totalBefore := before[0] + before[1]

	g := p.Global
	g.Step()
	p.Eng.RunFor(cfg.SwitchReconfigLatency + 1)

	_, tags, after, _ := sw.AppendWeightsTagged(vip, nil, nil, nil)
	totalAfter := after[0] + after[1]
	if math.Abs(totalAfter-totalBefore) > 1e-6 {
		t.Errorf("total weight %v -> %v; must be preserved", totalBefore, totalAfter)
	}
	if g.InterPodAdjusts == 0 {
		t.Fatal("no inter-pod adjustment")
	}
	// The RIP in the hot pod lost weight.
	for i, tag := range tags {
		vm := p.Cluster.VM(cluster.VMID(tag))
		srv := p.Cluster.Server(vm.Server)
		if srv.Pod == pod0 && after[i] >= before[i] {
			t.Errorf("hot-pod RIP weight %v -> %v; should decrease", before[i], after[i])
		}
		if srv.Pod != pod0 && after[i] <= before[i] {
			t.Errorf("cold-pod RIP weight %v -> %v; should increase", before[i], after[i])
		}
	}
}

// TestElephantGuard verifies oversized pods shed servers (with their
// instances) to the smallest pod.
func TestElephantGuard(t *testing.T) {
	cfg := testConfig().WithKnobs() // knobs off; the guard always runs
	cfg.MaxPodServers = 3
	topo := SmallTopology()
	topo.Pods = 2
	topo.ServersPerPod = 2
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pods := p.Cluster.PodIDs()
	// Grow pod 0 to 5 servers by transferring from pod 1 manually.
	for _, sid := range p.Cluster.Pod(pods[1]).ServerIDs() {
		p.Cluster.TransferServer(sid, pods[0])
		break
	}
	// 3 more fresh servers into pod 0.
	for i := 0; i < 2; i++ {
		if _, err := p.Cluster.AddServer(pods[0], SmallTopology().ServerCapacity); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.Cluster.Pod(pods[0]).NumServers(); got != 5 {
		t.Fatalf("setup: pod0 has %d servers", got)
	}
	g := p.Global
	g.Step()
	if got := p.Cluster.Pod(pods[0]).NumServers(); got > cfg.MaxPodServers {
		t.Errorf("pod0 still has %d servers, limit %d", got, cfg.MaxPodServers)
	}
	if g.ElephantMoves == 0 {
		t.Error("no elephant moves recorded")
	}
	if err := p.AuditErr(); err != nil {
		t.Error(err)
	}
}

// TestElephantGuardVMLimit verifies the VM-count limit also triggers.
func TestElephantGuardVMLimit(t *testing.T) {
	cfg := testConfig().WithKnobs()
	cfg.MaxPodVMs = 4
	topo := SmallTopology()
	topo.Pods = 2
	topo.ServersPerPod = 3
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, err := p.OnboardApp("a", defaultSlice(), 0, Demand{})
	if err != nil {
		t.Fatal(err)
	}
	pod0 := p.Cluster.PodIDs()[0]
	pod1 := p.Cluster.PodIDs()[1]
	for i := 0; i < 6; i++ {
		if _, err := p.DeployInstance(app.ID, pod0); err != nil {
			t.Fatal(err)
		}
	}
	p.Global.Step()
	if got := p.Cluster.PodNumVMs(pod0); got > cfg.MaxPodVMs {
		t.Errorf("pod0 has %d VMs, limit %d", got, cfg.MaxPodVMs)
	}
	if got := p.Cluster.PodNumVMs(pod1); got > cfg.MaxPodVMs {
		t.Errorf("guard pushed pod1 over the limit: %d VMs", got)
	}
	if err := p.AuditErr(); err != nil {
		t.Error(err)
	}
}

// TestRemoveIdleInstances verifies satisfied apps with idle instances
// get pruned down (but never below the VIPsPerApp floor).
func TestRemoveIdleInstances(t *testing.T) {
	cfg := testConfig().WithKnobs(KnobAppDeployment)
	p := newTestPlatform(t, cfg)
	app, err := p.OnboardApp("a", defaultSlice(), 6, Demand{CPU: 0.5, Mbps: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Concentrate demand on one VIP so the others' VMs idle.
	vips := p.DNS.VIPs(app.ID)
	p.DNS.ExposeOnly(app.ID, vips[0])
	p.Propagate()
	for i := 0; i < 8; i++ {
		p.Global.Step()
		p.Eng.RunFor(cfg.SwitchReconfigLatency + 1)
	}
	if got := app.NumInstances(); got >= 6 {
		t.Errorf("instances = %d; idle instances not pruned", got)
	}
	if got := app.NumInstances(); got < cfg.VIPsPerApp {
		t.Errorf("instances = %d fell below floor %d", got, cfg.VIPsPerApp)
	}
	if err := p.AuditErr(); err != nil {
		t.Error(err)
	}
}

// TestFullLoopConvergence runs everything together: a flash crowd on one
// app, all knobs on, and checks the platform converges to balanced,
// satisfied state.
func TestFullLoopConvergence(t *testing.T) {
	cfg := testConfig()
	p := newTestPlatform(t, cfg)
	var apps []*cluster.Application
	for i := 0; i < 4; i++ {
		a, err := p.OnboardApp("app", defaultSlice(), 2, Demand{CPU: 1, Mbps: 50})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a)
	}
	p.Start()
	p.Eng.RunUntil(100)
	// Flash crowd: app 0 demand ×12.
	p.SetAppDemand(apps[0].ID, Demand{CPU: 12, Mbps: 600})
	p.Eng.RunUntil(1500)

	if got := p.TotalSatisfaction(); got < 0.95 {
		t.Errorf("total satisfaction = %v after convergence", got)
	}
	for _, l := range p.Net.Links() {
		if l.Utilization() > 1.0 {
			t.Errorf("link %d still overloaded: %v", l.ID, l.Utilization())
		}
	}
	if imb := metrics.Imbalance(p.Fabric.Utilizations()); imb > 3.5 {
		t.Errorf("switch imbalance = %v", imb)
	}
	if err := p.AuditErr(); err != nil {
		t.Error(err)
	}
}

// TestDrainBlockedByConnectionsForces creates tracked connections on a
// draining VIP so the transfer must retry and finally force.
func TestDrainBlockedByConnectionsForces(t *testing.T) {
	cfg := testConfig().WithKnobs(KnobVIPTransfer)
	cfg.VIPsPerApp = 1
	p := newTestPlatform(t, cfg)
	a0, err := p.OnboardApp("a0", defaultSlice(), 1, Demand{CPU: 0.5, Mbps: 200})
	if err != nil {
		t.Fatal(err)
	}
	a1, err := p.OnboardApp("a1", defaultSlice(), 1, Demand{CPU: 0.5, Mbps: 200})
	if err != nil {
		t.Fatal(err)
	}
	// Co-locate both VIPs on switch 0 → 400/400 Mbps, overloaded, and a
	// transfer of either VIP helps.
	for _, app := range []cluster.AppID{a0.ID, a1.ID} {
		vip := p.Fabric.VIPsOfApp(app)[0]
		if home, _ := p.Fabric.HomeOf(vip); home != 0 {
			if err := p.Fabric.TransferVIP(vip, 0, false); err != nil {
				t.Fatal(err)
			}
		}
	}
	p.Propagate()
	// Open sticky connections on both VIPs (extreme TTL violators).
	for _, app := range []cluster.AppID{a0.ID, a1.ID} {
		vip := p.Fabric.VIPsOfApp(app)[0]
		if _, _, _, err := p.Fabric.Switch(0).OpenConn(vip, p.Rand()); err != nil {
			t.Fatal(err)
		}
	}
	p.Global.Step()
	p.Eng.RunFor(p.DNS.TTL() + 10*cfg.DrainMargin + 20)
	if p.Global.VIPTransfers == 0 {
		t.Fatal("no forced transfer happened")
	}
	if p.Global.DrainForceBreaks == 0 {
		t.Error("no force-broken connections recorded")
	}
	if u := p.Fabric.Switch(0).Utilization(); u > cfg.SwitchOverloadUtil {
		t.Errorf("switch 0 still overloaded: %v", u)
	}
}
