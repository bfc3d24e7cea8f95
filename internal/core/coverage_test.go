package core

import (
	"math"
	"testing"

	"megadc/internal/cluster"
)

// TestKnobCVacatesLoadedDonorServer covers the vacate-then-transfer path
// where the donor server actually hosts VMs that must be rehomed inside
// the donor pod before the server moves.
func TestKnobCVacatesLoadedDonorServer(t *testing.T) {
	cfg := testConfig().WithKnobs(KnobServerTransfer)
	topo := SmallTopology()
	topo.Pods = 2
	topo.ServersPerPod = 4
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	pods := p.Cluster.PodIDs()
	// Donor pod (pod 1): a light app with one VM on every server, so
	// whichever server is vacated has a VM to rehome.
	donorApp, err := p.OnboardApp("donor", defaultSlice(), 0, Demand{})
	if err != nil {
		t.Fatal(err)
	}
	for range p.Cluster.Pod(pods[1]).ServerIDs() {
		if _, err := p.DeployInstance(donorApp.ID, pods[1]); err != nil {
			t.Fatal(err)
		}
	}
	p.SetAppDemand(donorApp.ID, Demand{CPU: 2, Mbps: 20}) // pod1 util 2/32

	// Hot pod (pod 0).
	hot, err := p.OnboardApp("hot", defaultSlice(), 0, Demand{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.DeployInstance(hot.ID, pods[0]); err != nil {
			t.Fatal(err)
		}
	}
	p.SetAppDemand(hot.ID, Demand{CPU: 30, Mbps: 100})

	nDonorVMs := p.Cluster.PodNumVMs(pods[1])
	p.Global.Step()
	p.Eng.RunFor(cfg.VacateLatencyPerVM*4 + cfg.VMMigrateLatency + 10)
	if p.Global.ServerTransfers != 1 {
		t.Fatalf("transfers = %d", p.Global.ServerTransfers)
	}
	// The donor's VMs were all rehomed: pod 1 keeps its VM count even
	// though it lost a server.
	if got := p.Cluster.PodNumVMs(pods[1]); got != nDonorVMs {
		t.Errorf("donor pod VMs = %d, want %d (rehomed, not lost)", got, nDonorVMs)
	}
	if got := p.Cluster.Pod(pods[1]).NumServers(); got != 3 {
		t.Errorf("donor servers = %d, want 3", got)
	}
	// The transferred server arrived empty.
	for _, sid := range p.Cluster.Pod(pods[0]).ServerIDs() {
		srv := p.Cluster.Server(sid)
		if srv.NumVMs() == 0 && srv.Pod == pods[0] {
			return // found the fresh empty server
		}
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionOverlayDirect unit-tests the SessionOpened/SessionClosed
// hooks without the sessions driver.
func TestSessionOverlayDirect(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	app, err := p.OnboardApp("a", defaultSlice(), 2, Demand{CPU: 1, Mbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	vip := p.Fabric.VIPsOfApp(app.ID)[0]
	vmID := app.VMIDs()[0]
	res := cluster.Resources{CPU: 0.5, NetMbps: 20}
	baseVM := p.Cluster.VM(vmID).Demand
	baseFabric := p.Fabric.TotalThroughputMbps()

	p.SessionOpened(p.handleOf(vip), vmID, res)
	if got := p.Cluster.VM(vmID).Demand.CPU; math.Abs(got-baseVM.CPU-0.5) > 1e-9 {
		t.Errorf("VM CPU demand = %v", got)
	}
	if got := p.Fabric.TotalThroughputMbps(); math.Abs(got-baseFabric-20) > 1e-9 {
		t.Errorf("fabric load = %v", got)
	}
	// Propagate must reproduce the same state from the overlay.
	p.Propagate()
	if got := p.Cluster.VM(vmID).Demand.CPU; math.Abs(got-baseVM.CPU-0.5) > 1e-9 {
		t.Errorf("after Propagate, VM CPU = %v", got)
	}
	p.SessionClosed(p.handleOf(vip), vmID, res)
	if got := p.Cluster.VM(vmID).Demand.CPU; math.Abs(got-baseVM.CPU) > 1e-9 {
		t.Errorf("after close, VM CPU = %v", got)
	}
	if got := p.Fabric.TotalThroughputMbps(); math.Abs(got-baseFabric) > 1e-9 {
		t.Errorf("after close, fabric = %v", got)
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionClosedAfterVMRemoval covers the guard paths: closing a
// session whose VM has been removed must not corrupt state.
func TestSessionClosedAfterVMRemoval(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	app, _ := p.OnboardApp("a", defaultSlice(), 2, Demand{})
	vip := p.Fabric.VIPsOfApp(app.ID)[0]
	vmID := app.VMIDs()[0]
	res := cluster.Resources{CPU: 0.5, NetMbps: 20}
	p.SessionOpened(p.handleOf(vip), vmID, res)
	if err := p.RemoveInstance(vmID); err != nil {
		t.Fatal(err)
	}
	p.SessionClosed(p.handleOf(vip), vmID, res) // must not panic or corrupt
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}

// TestSuppressBlocksReconcile covers the drain-claim/reconcile
// interaction the drain protocol relies on.
func TestSuppressBlocksReconcile(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	app, _ := p.OnboardApp("a", defaultSlice(), 2, Demand{CPU: 1, Mbps: 10})
	vips := p.DNS.VIPs(app.ID)
	vip := vips[0]
	// Drain-style: claim and hide.
	tok := p.claims.claim(drainClaim(p.handleOf(vip)))
	p.DNS.SetWeight(app.ID, vips[0], 0)
	// A deploy triggers reconcileExposure; the claimed VIP must stay
	// hidden even though it has RIPs.
	if _, err := p.DeployInstance(app.ID, p.Cluster.PodIDs()[0]); err != nil {
		t.Fatal(err)
	}
	_, ws, _ := p.DNS.Weights(app.ID)
	if ws[0] != 0 {
		t.Error("claimed VIP was re-exposed by reconcile")
	}
	// Release: the next reconcile re-exposes it.
	p.claims.release(drainClaim(p.handleOf(vip)), tok)
	if _, err := p.DeployInstance(app.ID, p.Cluster.PodIDs()[1]); err != nil {
		t.Fatal(err)
	}
	_, ws, _ = p.DNS.Weights(app.ID)
	if ws[0] == 0 {
		t.Error("released VIP with RIPs not re-exposed")
	}
}

// TestRecoverLostCapacityBounds covers the maxDeploys cap.
func TestRecoverLostCapacityBounds(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	app, _ := p.OnboardApp("a", defaultSlice(), 4, Demand{CPU: 8, Mbps: 100})
	// Remove two instances: satisfaction drops well below target.
	vms := app.VMIDs()
	p.RemoveInstance(vms[0])
	p.RemoveInstance(vms[1])
	p.Propagate()
	got := p.RecoverLostCapacity(0.99, 1)
	if got != 1 {
		t.Errorf("deploys = %d, want exactly the cap 1", got)
	}
}

// TestPropagateIdempotent: running Propagate twice yields identical
// state — the managers may call it after every action without drift.
func TestPropagateIdempotent(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	for i := 0; i < 4; i++ {
		if _, err := p.OnboardApp("a", defaultSlice(), 3, Demand{CPU: 2, Mbps: 150}); err != nil {
			t.Fatal(err)
		}
	}
	// Add a session overlay for good measure.
	app0 := p.Cluster.AppIDs()[0]
	vip := p.Fabric.VIPsOfApp(app0)[0]
	p.SessionOpened(p.handleOf(vip), p.Cluster.App(app0).VMIDs()[0], cluster.Resources{CPU: 0.3, NetMbps: 10})

	snapshot := func() (vm map[cluster.VMID]cluster.Resources, links []float64, fabric float64) {
		vm = make(map[cluster.VMID]cluster.Resources)
		for _, id := range p.Cluster.VMIDs() {
			vm[id] = p.Cluster.VM(id).Demand
		}
		return vm, p.Net.LinkLoads(), p.Fabric.TotalThroughputMbps()
	}
	p.Propagate()
	vm1, links1, fab1 := snapshot()
	p.Propagate()
	vm2, links2, fab2 := snapshot()
	for id, d := range vm1 {
		if vm2[id] != d {
			t.Errorf("vm %d demand drifted: %v -> %v", id, d, vm2[id])
		}
	}
	for i := range links1 {
		if math.Abs(links1[i]-links2[i]) > 1e-9 {
			t.Errorf("link %d drifted: %v -> %v", i, links1[i], links2[i])
		}
	}
	if math.Abs(fab1-fab2) > 1e-9 {
		t.Errorf("fabric drifted: %v -> %v", fab1, fab2)
	}
}

// TestPodManagerAccessors covers small read paths.
func TestPodManagerAccessors(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	pm := p.PodManagers()[0]
	if pm.PodID() != p.Cluster.PodIDs()[0] {
		t.Error("PodID mismatch")
	}
	// defaultSlice falls back to the app's DefaultSlice when the
	// platform has no record (apps created outside OnboardApp).
	a := p.Cluster.AddApp("raw", cluster.Resources{CPU: 2})
	if got := pm.defaultSlice(a.ID); got.CPU != 2 {
		t.Errorf("defaultSlice fallback = %v", got)
	}
	if got := pm.defaultSlice(9999); !got.IsZero() {
		t.Errorf("missing app slice = %v", got)
	}
}
