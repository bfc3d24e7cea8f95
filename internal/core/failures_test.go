package core

import (
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/netmodel"
)

func TestFailServerRemovesVMsAndRecovers(t *testing.T) {
	cfg := testConfig()
	p := newTestPlatform(t, cfg)
	// Demand exactly fills the 4 instances, so losing one hurts.
	app, err := p.OnboardApp("a", defaultSlice(), 4, Demand{CPU: 4, Mbps: 200})
	if err != nil {
		t.Fatal(err)
	}
	victim := p.Cluster.VM(app.VMIDs()[0]).Server
	nOn := p.Cluster.Server(victim).NumVMs()
	lost, err := p.FailServer(victim)
	if err != nil {
		t.Fatal(err)
	}
	if lost != nOn {
		t.Errorf("lost %d VMs, server had %d", lost, nOn)
	}
	if app.NumInstances() != 4-lost {
		t.Errorf("instances = %d", app.NumInstances())
	}
	if !p.Cluster.Server(victim).Capacity.IsZero() {
		t.Error("dead server still has capacity")
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
	// Explicit repair restores satisfaction.
	deploys := p.RecoverLostCapacity(0.99, 8)
	if deploys == 0 {
		t.Error("no replacement deployed")
	}
	if got := p.AppSatisfaction(app.ID); got < 0.99 {
		t.Errorf("satisfaction after recovery = %v", got)
	}
	// Dead server received nothing.
	if p.Cluster.Server(victim).NumVMs() != 0 {
		t.Error("replacement placed on the dead server")
	}
}

func TestFailSwitchRehomesVIPs(t *testing.T) {
	cfg := testConfig()
	p := newTestPlatform(t, cfg)
	app, err := p.OnboardApp("a", defaultSlice(), 4, Demand{CPU: 2, Mbps: 200})
	if err != nil {
		t.Fatal(err)
	}
	// Pick the switch hosting the app's first VIP.
	vip := p.Fabric.VIPsOfApp(app.ID)[0]
	home, _ := p.Fabric.HomeOf(vip)
	nVIPs := p.Fabric.Switch(home).NumVIPs()
	rehomed, dropped, err := p.FailSwitch(home)
	if err != nil {
		t.Fatal(err)
	}
	if rehomed+dropped != nVIPs {
		t.Errorf("rehomed %d + dropped %d != %d VIPs", rehomed, dropped, nVIPs)
	}
	if dropped != 0 {
		t.Errorf("dropped %d VIPs despite healthy capacity", dropped)
	}
	newHome, ok := p.Fabric.HomeOf(vip)
	if !ok || newHome == home {
		t.Errorf("VIP not re-homed: %v %v", newHome, ok)
	}
	if p.Fabric.Switch(home).NumVIPs() != 0 {
		t.Error("dead switch still hosts VIPs")
	}
	// Traffic still flows: satisfaction unchanged after repropagation.
	if got := p.AppSatisfaction(app.ID); got < 0.99 {
		t.Errorf("satisfaction after switch failure = %v", got)
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}

func TestFailSwitchDropsWhenNoCapacity(t *testing.T) {
	// One-switch platform: failing it must drop (and hide) every VIP.
	topo := SmallTopology()
	topo.Switches = 1
	cfg := testConfig()
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, err := p.OnboardApp("a", defaultSlice(), 2, Demand{CPU: 1, Mbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	rehomed, dropped, err := p.FailSwitch(0)
	if err != nil {
		t.Fatal(err)
	}
	if rehomed != 0 || dropped != cfg.VIPsPerApp {
		t.Errorf("rehomed/dropped = %d/%d, want 0/%d", rehomed, dropped, cfg.VIPsPerApp)
	}
	// All exposure gone: the app is dark (served 0) but consistent.
	_, ws, _ := p.DNS.Weights(app.ID)
	for _, w := range ws {
		if w != 0 {
			t.Error("dropped VIP still exposed")
		}
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}

func TestFailLinkReadvertises(t *testing.T) {
	cfg := testConfig()
	p := newTestPlatform(t, cfg)
	if _, err := p.OnboardApp("a", defaultSlice(), 4, Demand{CPU: 2, Mbps: 400}); err != nil {
		t.Fatal(err)
	}
	// Find a link carrying at least one VIP.
	var victim netmodel.LinkID = -1
	for _, l := range p.Net.Links() {
		if len(p.Net.VIPsOnLink(l.ID)) > 0 {
			victim = l.ID
			break
		}
	}
	if victim < 0 {
		t.Fatal("setup: no loaded link")
	}
	nVIPs := len(p.Net.VIPsOnLink(victim))
	updatesBefore := p.Net.RouteUpdates
	readv, err := p.FailLink(victim)
	if err != nil {
		t.Fatal(err)
	}
	if readv != nVIPs {
		t.Errorf("readvertised %d of %d VIPs", readv, nVIPs)
	}
	// Withdraw + advertise per VIP.
	if got := p.Net.RouteUpdates - updatesBefore; got != int64(2*nVIPs) {
		t.Errorf("route updates = %d, want %d", got, 2*nVIPs)
	}
	if got := len(p.Net.VIPsOnLink(victim)); got != 0 {
		t.Errorf("dead link still carries %d VIPs", got)
	}
	if p.Net.Link(victim).LoadMbps() > 1e-9 {
		t.Errorf("dead link still loaded: %v", p.Net.Link(victim).LoadMbps())
	}
	// Total carried traffic is conserved (no VIP went dark).
	var total float64
	for _, l := range p.Net.LinkLoads() {
		total += l
	}
	if total < 399 {
		t.Errorf("traffic lost after link failure: %v", total)
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}

func TestCascadedFailuresConvergeUnderControlLoops(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	cfg := testConfig()
	p := newTestPlatform(t, cfg)
	var apps []*cluster.Application
	for i := 0; i < 4; i++ {
		a, err := p.OnboardApp("a", defaultSlice(), 3, Demand{CPU: 2, Mbps: 100})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a)
	}
	p.Start()
	p.Eng.RunUntil(100)
	// Kill one server, one switch, one link in sequence.
	p.Eng.At(150, func() {
		if _, err := p.FailServer(p.Cluster.ServerIDs()[0]); err != nil {
			t.Errorf("FailServer: %v", err)
		}
	})
	p.Eng.At(300, func() {
		if _, _, err := p.FailSwitch(0); err != nil {
			t.Errorf("FailSwitch: %v", err)
		}
	})
	p.Eng.At(450, func() {
		if _, err := p.FailLink(0); err != nil {
			t.Errorf("FailLink: %v", err)
		}
	})
	p.Eng.RunUntil(2400)
	if got := p.TotalSatisfaction(); got < 0.9 {
		t.Errorf("satisfaction after cascaded failures = %v", got)
	}
	for _, a := range apps {
		if got := p.AppSatisfaction(a.ID); got < 0.85 {
			t.Errorf("app %d satisfaction = %v", a.ID, got)
		}
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}
