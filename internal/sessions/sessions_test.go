package sessions

import (
	"math"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/workload"
)

func newPlatform(t *testing.T) *core.Platform {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.VIPsPerApp = 2
	p, err := core.NewPlatform(core.SmallTopology(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func slice() cluster.Resources { return cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100} }

func TestDriverValidation(t *testing.T) {
	p := newPlatform(t)
	bad := DefaultConfig()
	bad.Population = 0
	if _, err := NewDriver(p, bad); err == nil {
		t.Error("zero population accepted")
	}
	bad = DefaultConfig()
	bad.Template.MeanDuration = 0
	if _, err := NewDriver(p, bad); err == nil {
		t.Error("zero duration accepted")
	}
	d, err := NewDriver(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	app, _ := p.OnboardApp("a", slice(), 2, core.Demand{})
	if err := d.AddApp(app.ID, workload.Constant(1)); err != nil {
		t.Fatal(err)
	}
	if err := d.AddApp(app.ID, workload.Constant(1)); err == nil {
		t.Error("duplicate AddApp accepted")
	}
}

func TestSessionsGenerateDemandAndComplete(t *testing.T) {
	p := newPlatform(t)
	app, err := p.OnboardApp("a", slice(), 4, core.Demand{})
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDriver(p, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	d.StopAt = 300
	if err := d.AddApp(app.ID, workload.Constant(5)); err != nil {
		t.Fatal(err)
	}
	p.Eng.RunUntil(150)
	st := d.Stats(app.ID)
	if st.Started < 500 {
		t.Fatalf("started = %d, want ≈750", st.Started)
	}
	if st.Active <= 0 {
		t.Error("no active sessions mid-run")
	}
	// Demand flows to VMs: total VM demand ≈ active × per-session.
	var cpu, mbps float64
	for _, vmID := range app.VMIDs() {
		vm := p.Cluster.VM(vmID)
		cpu += vm.Demand.CPU
		mbps += vm.Demand.NetMbps
	}
	wantMbps := float64(st.Active) * DefaultConfig().Template.Mbps
	if math.Abs(mbps-wantMbps) > 1e-6*(1+wantMbps) {
		t.Errorf("VM Mbps demand = %v, want %v (active sessions)", mbps, wantMbps)
	}
	if cpu <= 0 {
		t.Error("no CPU demand from sessions")
	}
	// Switch loads match session bandwidth.
	if got := p.Fabric.TotalThroughputMbps(); math.Abs(got-wantMbps) > 1e-6*(1+wantMbps) {
		t.Errorf("fabric load = %v, want %v", got, wantMbps)
	}
	// Run past the stop: everything drains, all demand returns to zero.
	p.Eng.Run()
	st = d.Stats(app.ID)
	if st.Active != 0 {
		t.Errorf("active = %d after drain", st.Active)
	}
	if tot := d.TotalStats(); tot != st {
		t.Errorf("TotalStats %+v != single-app stats %+v", tot, st)
	}
	if unknown := d.Stats(9999); unknown != (Stats{}) {
		t.Errorf("unknown app stats = %+v", unknown)
	}
	if st.Completed+st.Broken != st.Started {
		t.Errorf("completed %d + broken %d != started %d", st.Completed, st.Broken, st.Started)
	}
	if st.Broken != 0 {
		t.Errorf("broken = %d with no reconfigurations", st.Broken)
	}
	for _, vmID := range app.VMIDs() {
		if !p.Cluster.VM(vmID).Demand.IsZero() {
			t.Errorf("vm %d demand not drained: %v", vmID, p.Cluster.VM(vmID).Demand)
		}
	}
	if got := p.Fabric.TotalThroughputMbps(); got > 1e-6 {
		t.Errorf("fabric load after drain = %v", got)
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}

func TestPropagatePreservesSessionOverlay(t *testing.T) {
	p := newPlatform(t)
	app, _ := p.OnboardApp("a", slice(), 2, core.Demand{})
	d, _ := NewDriver(p, DefaultConfig())
	d.StopAt = 100
	d.AddApp(app.ID, workload.Constant(5))
	p.Eng.RunUntil(50)
	var before float64
	for _, vmID := range app.VMIDs() {
		before += p.Cluster.VM(vmID).Demand.NetMbps
	}
	if before <= 0 {
		t.Fatal("no session demand")
	}
	p.Propagate() // a manager action would call this
	var after float64
	for _, vmID := range app.VMIDs() {
		after += p.Cluster.VM(vmID).Demand.NetMbps
	}
	if math.Abs(after-before) > 1e-9 {
		t.Errorf("Propagate changed session demand: %v -> %v", before, after)
	}
}

func TestNoExposureCounted(t *testing.T) {
	p := newPlatform(t)
	app, _ := p.OnboardApp("a", slice(), 2, core.Demand{})
	// Hide all VIPs.
	for _, vip := range p.DNS.VIPs(app.ID) {
		p.DNS.SetWeight(app.ID, vip, 0)
	}
	d, _ := NewDriver(p, DefaultConfig())
	d.StopAt = 60
	d.AddApp(app.ID, workload.Constant(2))
	p.Eng.Run()
	st := d.Stats(app.ID)
	if st.Started != 0 || st.NoExposure == 0 {
		t.Errorf("stats = %+v; want only NoExposure", st)
	}
}

func TestForcedTransferBreaksSessions(t *testing.T) {
	cfg := core.DefaultConfig().WithKnobs()
	cfg.VIPsPerApp = 1
	p, err := core.NewPlatform(core.SmallTopology(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, _ := p.OnboardApp("a", slice(), 2, core.Demand{})
	scfg := DefaultConfig()
	scfg.Template.MeanDuration = 500 // long-lived sessions
	d, _ := NewDriver(p, scfg)
	d.StopAt = 50
	d.AddApp(app.ID, workload.Constant(2))
	p.Eng.RunUntil(60)
	vip := p.Fabric.VIPsOfApp(app.ID)[0]
	home, _ := p.Fabric.HomeOf(vip)
	dst := (home + 1) % 4
	if err := p.Fabric.TransferVIP(vip, dst, true); err != nil {
		t.Fatal(err)
	}
	p.Eng.Run()
	st := d.Stats(app.ID)
	if st.Broken == 0 {
		t.Error("forced transfer broke no sessions")
	}
	if st.Completed+st.Broken != st.Started {
		t.Errorf("accounting: %+v", st)
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionsWithManagersConverge(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	p := newPlatform(t)
	app, err := p.OnboardApp("a", slice(), 2, core.Demand{})
	if err != nil {
		t.Fatal(err)
	}
	scfg := DefaultConfig()
	scfg.Template = workload.SessionTemplate{MeanDuration: 60, Mbps: 1, CPU: 0.05}
	d, err := NewDriver(p, scfg)
	if err != nil {
		t.Fatal(err)
	}
	d.StopAt = 1800
	// ~40 sessions/s × 0.05 CPU × 60 s = ~120 concurrent CPU... too big;
	// 10/s × 0.05 × 60 = 30 cores steady state over 2 initial slices:
	// the knobs must scale the app out.
	if err := d.AddApp(app.ID, workload.Constant(10)); err != nil {
		t.Fatal(err)
	}
	p.Start()
	p.Eng.RunUntil(1800)
	if got := p.AppSatisfaction(app.ID); got < 0.85 {
		t.Errorf("satisfaction with session demand = %v", got)
	}
	if app.NumInstances() <= 2 {
		t.Errorf("no scale-out happened: %d instances", app.NumInstances())
	}
	st := d.Stats(app.ID)
	if st.Started == 0 || st.Rejected > st.Started/10 {
		t.Errorf("session stats degenerate: %+v", st)
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}
