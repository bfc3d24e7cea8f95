package energy

import (
	"math"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/workload"
)

func newPlatform(t *testing.T, pods, servers int) *core.Platform {
	t.Helper()
	topo := core.SmallTopology()
	topo.Pods = pods
	topo.ServersPerPod = servers
	cfg := core.DefaultConfig()
	cfg.VIPsPerApp = 2
	p, err := core.NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func slice() cluster.Resources { return cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100} }

func TestPowerModel(t *testing.T) {
	m := DefaultPowerModel()
	if got := m.Watts(0); got != 150 {
		t.Errorf("idle = %v", got)
	}
	if got := m.Watts(1); got != 300 {
		t.Errorf("peak = %v", got)
	}
	if got := m.Watts(0.5); got != 225 {
		t.Errorf("half = %v", got)
	}
	if got := m.Watts(-1); got != 150 {
		t.Errorf("clamp low = %v", got)
	}
	if got := m.Watts(2); got != 300 {
		t.Errorf("clamp high = %v", got)
	}
}

func TestMeterCountsOnlyPoweredServers(t *testing.T) {
	p := newPlatform(t, 1, 4)
	m := NewMeter(p, DefaultPowerModel())
	// 4 idle servers → 600 W.
	if got := m.CurrentWatts(); got != 600 {
		t.Errorf("idle platform = %v W", got)
	}
	// Power one off (zero capacity).
	p.Cluster.Server(p.Cluster.ServerIDs()[0]).Capacity = cluster.Resources{}
	if got := m.CurrentWatts(); got != 450 {
		t.Errorf("after power-off = %v W", got)
	}
	m.Sample()
	p.Eng.RunUntil(3600)
	m.Sample()
	if got := m.EnergyWh(3600); math.Abs(got-450) > 1 {
		t.Errorf("1 h at 450 W = %v Wh", got)
	}
	if got := m.AverageWatts(3600); math.Abs(got-450) > 1 {
		t.Errorf("average = %v W", got)
	}
}

func TestConsolidatorPowersOffIdleServers(t *testing.T) {
	p := newPlatform(t, 1, 8)
	app, err := p.OnboardApp("a", slice(), 2, core.Demand{CPU: 2, Mbps: 50})
	if err != nil {
		t.Fatal(err)
	}
	c := NewConsolidator(p)
	// Pod util = 2/64 ≈ 3% — deep below the threshold; repeated steps
	// shed servers down to the minimum that keeps VMs placed.
	for i := 0; i < 10; i++ {
		c.Step()
	}
	if c.PowerOffs == 0 || c.PoweredOff() == 0 {
		t.Fatalf("no servers powered off: %+v", c)
	}
	// All VMs still placed and served.
	if got := p.AppSatisfaction(app.ID); got < 0.999 {
		t.Errorf("satisfaction after consolidation = %v", got)
	}
	// At least one server stays on.
	on := 0
	for _, id := range p.Cluster.ServerIDs() {
		if !p.Cluster.Server(id).Capacity.IsZero() {
			on++
		}
	}
	if on == 0 {
		t.Error("every server powered off")
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}

func TestConsolidatorPowersBackOnUnderLoad(t *testing.T) {
	p := newPlatform(t, 1, 8)
	app, err := p.OnboardApp("a", slice(), 2, core.Demand{CPU: 2, Mbps: 50})
	if err != nil {
		t.Fatal(err)
	}
	c := NewConsolidator(p)
	for i := 0; i < 10; i++ {
		c.Step()
	}
	offBefore := c.PoweredOff()
	if offBefore == 0 {
		t.Fatal("setup: nothing consolidated")
	}
	// Demand surges: pod util over remaining capacity > PowerOnAbove.
	onCap := p.Cluster.PodCapacity(p.Cluster.PodIDs()[0]).CPU
	p.SetAppDemand(app.ID, core.Demand{CPU: onCap * 0.9, Mbps: 100})
	c.Step()
	if c.PowerOns == 0 || c.PoweredOff() >= offBefore {
		t.Errorf("no power-on under load: offs=%d ons=%d off-now=%d", c.PowerOffs, c.PowerOns, c.PoweredOff())
	}
	// Restored server has its capacity back.
	for _, id := range p.Cluster.ServerIDs() {
		srv := p.Cluster.Server(id)
		if !c.IsOff(id) && srv.Capacity.IsZero() {
			t.Errorf("server %d on but zero capacity", id)
		}
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}

func TestConsolidatorRespectsPackCeiling(t *testing.T) {
	p := newPlatform(t, 1, 2)
	// Two servers each ~60% full of VMs: vacating either would push the
	// other past the 90% ceiling → nothing powers off.
	app, err := p.OnboardApp("a", cluster.Resources{CPU: 5, MemMB: 1024, NetMbps: 100}, 0, core.Demand{})
	if err != nil {
		t.Fatal(err)
	}
	pod := p.Cluster.PodIDs()[0]
	for i := 0; i < 2; i++ {
		if _, err := p.DeployInstance(app.ID, pod); err != nil {
			t.Fatal(err)
		}
	}
	c := NewConsolidator(p)
	c.Step()
	if c.PowerOffs != 0 {
		t.Errorf("powered off despite pack ceiling: %d", c.PowerOffs)
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}

func TestConsolidationSavesEnergyOnDiurnalLoad(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	run := func(consolidate bool) (wh float64, minSat float64) {
		p := newPlatform(t, 2, 8)
		app, err := p.OnboardApp("a", slice(), 4, core.Demand{})
		if err != nil {
			t.Fatal(err)
		}
		// Diurnal demand: mean ~25% of capacity, peak ~45%.
		p.DriveDemand(app.ID, workload.Diurnal{Base: 1, Amplitude: 0.8, Period: 43200},
			core.Demand{CPU: 30, Mbps: 300}, 300, 86400)
		p.Start()
		meter := NewMeter(p, DefaultPowerModel())
		minSat = 1.0
		if consolidate {
			c := NewConsolidator(p)
			c.Attach(meter, 120, 60)
		} else {
			p.Eng.Every(0, 60, func() bool { meter.Sample(); return true })
		}
		p.Eng.Every(600, 600, func() bool {
			if s := p.TotalSatisfaction(); s < minSat {
				minSat = s
			}
			return p.Eng.Now() < 86400
		})
		p.Eng.RunUntil(86400)
		if err := p.AuditErr(); err != nil {
			t.Fatal(err)
		}
		return meter.EnergyWh(86400), minSat
	}
	base, baseSat := run(false)
	cons, consSat := run(true)
	if cons >= base {
		t.Errorf("consolidation saved nothing: %v Wh vs %v Wh", cons, base)
	}
	saving := 1 - cons/base
	if saving < 0.10 {
		t.Errorf("saving only %.1f%%; expected >10%% on a 25%%-mean diurnal load", saving*100)
	}
	if consSat < baseSat-0.1 {
		t.Errorf("consolidation hurt satisfaction: %v vs %v", consSat, baseSat)
	}
	t.Logf("energy: %0.f Wh -> %0.f Wh (%.1f%% saved), min satisfaction %.3f -> %.3f",
		base, cons, saving*100, baseSat, consSat)
}

// TestConsolidatorLeavesFailedServersAlone: a powered-off server that
// faults and is detected must not be powered back on while it awaits
// repair — its capacity is the fault snapshot's until RepairServer
// (I3.DETECTED_ZEROED) — and comes back on normally once repaired.
func TestConsolidatorLeavesFailedServersAlone(t *testing.T) {
	p := newPlatform(t, 1, 8)
	app, err := p.OnboardApp("a", slice(), 2, core.Demand{CPU: 2, Mbps: 50})
	if err != nil {
		t.Fatal(err)
	}
	c := NewConsolidator(p)
	for i := 0; i < 10; i++ {
		c.Step()
	}
	var dark cluster.ServerID = -1
	for _, id := range p.Cluster.ServerIDs() {
		if c.IsOff(id) {
			dark = id
			break
		}
	}
	if dark < 0 {
		t.Fatal("setup: nothing consolidated")
	}
	if _, err := p.FailServer(dark); err != nil {
		t.Fatal(err)
	}
	onCap := p.Cluster.PodCapacity(p.Cluster.PodIDs()[0]).CPU
	p.SetAppDemand(app.ID, core.Demand{CPU: onCap * 5, Mbps: 100})
	for i := 0; i < 10; i++ {
		c.Step()
	}
	if !c.IsOff(dark) || !p.Cluster.Server(dark).Capacity.IsZero() {
		t.Errorf("failed server %d powered on before repair", dark)
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
	if err := p.RepairServer(dark); err != nil {
		t.Fatal(err)
	}
	// Every other server is back on by now; any load powers this one on.
	c.PowerOnAbove = 0
	c.Step()
	if c.IsOff(dark) || p.Cluster.Server(dark).Capacity.IsZero() {
		t.Errorf("repaired server %d not powered back on", dark)
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}
