package faults

import (
	"fmt"
	"math"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/core"
)

// churnPlatform builds a platform with a few onboarded apps, suitable
// for injecting churn into.
func churnPlatform(t *testing.T, seed int64) *core.Platform {
	t.Helper()
	topo := core.SmallTopology()
	topo.Seed = seed
	p, err := core.NewPlatform(topo, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	slice := cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}
	for i := 0; i < 4; i++ {
		if _, err := p.OnboardApp(fmt.Sprintf("app-%d", i), slice, 3,
			core.Demand{CPU: 3, Mbps: 80}); err != nil {
			t.Fatal(err)
		}
	}
	return p
}

// aggressiveConfig fails components often enough that a short run sees
// faults in every class, including flaps.
func aggressiveConfig() Config {
	cfg := DefaultConfig()
	cfg.Server = Class{MTBF: 400, MTTR: 60, DetectDelay: 15}
	cfg.Switch = Class{MTBF: 1200, MTTR: 90, DetectDelay: 10}
	cfg.Link = Class{MTBF: 1000, MTTR: 80, DetectDelay: 5}
	cfg.Flap = FlapConfig{MTBF: 900, Cycles: 3, Down: 2, Up: 8}
	return cfg
}

type runResult struct {
	serverFaults, switchFaults, linkFaults int64
	flapEpisodes, flapCycles               int64
	detections, repairs, skipped           int64
	routeUpdates                           int64
	downtime, unserved                     float64
	outages                                int
	satisfaction                           float64
}

// runChurn executes one seeded churn run and returns every observable
// number it produced.
func runChurn(t *testing.T, seed int64) runResult {
	t.Helper()
	p := churnPlatform(t, seed)
	inj := New(p, aggressiveConfig())
	mon := NewMonitor(p, 0.95, 5)
	p.Start()
	inj.Start(2000)
	mon.Start(2000)
	p.Eng.RunUntil(2000)
	mon.Finish()
	if err := p.AuditErr(); err != nil {
		t.Fatalf("invariants after churn: %v", err)
	}
	return runResult{
		serverFaults: inj.ServerFaults,
		switchFaults: inj.SwitchFaults,
		linkFaults:   inj.LinkFaults,
		flapEpisodes: inj.FlapEpisodes,
		flapCycles:   inj.FlapCycles,
		detections:   inj.Detections,
		repairs:      inj.Repairs,
		skipped:      inj.Skipped,
		routeUpdates: p.Net.RouteUpdates,
		downtime:     mon.Avail.TotalDowntime(),
		unserved:     mon.Avail.TotalUnserved(),
		outages:      mon.Avail.TotalOutages(),
		satisfaction: p.TotalSatisfaction(),
	}
}

// TestInjectorDeterministic is the acceptance criterion: a seeded run
// is bit-for-bit reproducible — two platforms with the same seed and
// configuration produce byte-identical counters and availability
// numbers.
func TestInjectorDeterministic(t *testing.T) {
	a := runChurn(t, 42)
	b := runChurn(t, 42)
	if a != b {
		t.Fatalf("same seed produced different runs:\n  a=%+v\n  b=%+v", a, b)
	}
	if a.serverFaults == 0 || a.switchFaults == 0 || a.linkFaults == 0 || a.flapCycles == 0 {
		t.Fatalf("expected faults in every class, got %+v", a)
	}
	// A different seed must actually change the run, or the comparison
	// above is vacuous.
	c := runChurn(t, 43)
	if a == c {
		t.Fatalf("different seeds produced identical runs: %+v", a)
	}
}

// TestChurnEndsFullyRepaired runs aggressive churn, stops injecting,
// and checks that once the repair tail drains every component is back
// to serving and the platform recovers its demand.
func TestChurnEndsFullyRepaired(t *testing.T) {
	p := churnPlatform(t, 7)
	inj := New(p, aggressiveConfig())
	p.Start()
	inj.Start(1500)
	// Run well past stopAt: MTTRs are around a minute, so 1500s of
	// slack drains every in-flight repair.
	p.Eng.RunUntil(3000)

	for _, id := range p.Cluster.ServerIDs() {
		if !p.Cluster.Server(id).Serving() {
			t.Errorf("server %d not serving after repair tail", id)
		}
	}
	for _, sw := range p.Fabric.Switches() {
		if !sw.Serving() {
			t.Errorf("switch %d not serving after repair tail", sw.ID)
		}
	}
	for _, l := range p.Net.Links() {
		if !l.Serving() {
			t.Errorf("link %d not serving after repair tail", l.ID)
		}
	}
	if inj.Faults() == 0 {
		t.Fatal("injector produced no faults")
	}
	if err := p.AuditErr(); err != nil {
		t.Fatalf("invariants after repair tail: %v", err)
	}
	if sat := p.TotalSatisfaction(); sat < 0.99 {
		t.Fatalf("satisfaction %.3f after full repair, want >= 0.99", sat)
	}
}

// TestFastFlapNeverDetected injects only flaps whose Down time is
// shorter than the link detection delay: the control plane must never
// react — zero detections, zero route updates — yet cycles happen and
// the links end the run at full capacity.
func TestFastFlapNeverDetected(t *testing.T) {
	p := churnPlatform(t, 11)
	cfg := Config{
		Flap:            FlapConfig{MTBF: 300, Cycles: 3, Down: 2, Up: 6},
		Link:            Class{MTBF: 0, MTTR: 0, DetectDelay: 5},
		MinHealthyLinks: 1,
	}
	inj := New(p, cfg)
	// No p.Start(): control loops stay off so any route update could
	// only come from a (wrongly) fired detection.
	p.Propagate()
	baseline := p.Net.RouteUpdates
	caps := make(map[int]float64)
	for _, l := range p.Net.Links() {
		caps[int(l.ID)] = l.CapacityMbps
	}

	inj.Start(2000)
	p.Eng.RunUntil(2500)

	if inj.FlapCycles == 0 {
		t.Fatal("no flap cycles injected")
	}
	if inj.Detections != 0 {
		t.Fatalf("fast flaps were detected %d times, want 0", inj.Detections)
	}
	if p.Net.RouteUpdates != baseline {
		t.Fatalf("route updates %d -> %d during undetected flaps, want unchanged",
			baseline, p.Net.RouteUpdates)
	}
	for _, l := range p.Net.Links() {
		if !l.Serving() {
			t.Errorf("link %d not serving after flap episodes", l.ID)
		}
		if l.CapacityMbps != caps[int(l.ID)] {
			t.Errorf("link %d capacity %.1f, want %.1f restored",
				l.ID, l.CapacityMbps, caps[int(l.ID)])
		}
	}
}

// TestSlowFlapIsDetected is the counterpart: Down longer than the
// detection delay means the control plane sees each cycle and reroutes.
func TestSlowFlapIsDetected(t *testing.T) {
	p := churnPlatform(t, 13)
	cfg := Config{
		Flap:            FlapConfig{MTBF: 300, Cycles: 2, Down: 12, Up: 20},
		Link:            Class{MTBF: 0, MTTR: 0, DetectDelay: 5},
		MinHealthyLinks: 1,
	}
	inj := New(p, cfg)
	p.Propagate()
	inj.Start(2000)
	p.Eng.RunUntil(2500)

	if inj.FlapCycles == 0 {
		t.Fatal("no flap cycles injected")
	}
	if inj.Detections == 0 {
		t.Fatal("slow flaps (Down > DetectDelay) were never detected")
	}
	for _, l := range p.Net.Links() {
		if !l.Serving() {
			t.Errorf("link %d not serving after flap episodes", l.ID)
		}
	}
}

// TestMinHealthyFloors sets floors equal to the component counts, so
// every attempted fault must be skipped and nothing ever fails.
func TestMinHealthyFloors(t *testing.T) {
	p := churnPlatform(t, 17)
	cfg := aggressiveConfig()
	cfg.MinHealthyServers = len(p.Cluster.ServerIDs())
	cfg.MinHealthySwitches = len(p.Fabric.Switches())
	cfg.MinHealthyLinks = len(p.Net.Links())
	inj := New(p, cfg)
	p.Start()
	inj.Start(1000)
	p.Eng.RunUntil(1000)

	if inj.Faults() != 0 {
		t.Fatalf("floors at full population still allowed %d faults", inj.Faults())
	}
	if inj.Skipped == 0 {
		t.Fatal("no faults were attempted (test is vacuous)")
	}
	if sat := p.TotalSatisfaction(); sat < 0.99 {
		t.Fatalf("satisfaction %.3f with all faults skipped, want >= 0.99", sat)
	}
}

// TestMonitorSeesInjectedOutage wires a monitor to a hand-driven
// outage and checks the downtime lands in the availability tracker.
func TestMonitorSeesInjectedOutage(t *testing.T) {
	p := churnPlatform(t, 23)
	mon := NewMonitor(p, 0.95, 5)
	p.Start()
	mon.Start(0)
	p.Eng.RunFor(100)

	// Fail half the servers long enough for several samples, then
	// repair and give the control loops time to redeploy.
	ids := p.Cluster.ServerIDs()
	for _, id := range ids[:len(ids)/2] {
		p.FailServer(id)
	}
	p.Eng.RunFor(50)
	for _, id := range ids[:len(ids)/2] {
		p.RepairServer(id)
	}
	p.Eng.RunFor(600)
	mon.Finish()

	if mon.Avail.TotalDowntime() <= 0 {
		t.Fatal("monitor recorded no downtime across a 50s mass outage")
	}
	if mon.Avail.TotalOutages() == 0 {
		t.Fatal("monitor recorded no outage episodes")
	}
	if mon.Avail.AllRecoveries().N() == 0 {
		t.Fatal("monitor recorded no recoveries despite repair")
	}
}

// Validate rejects every time that would schedule an engine event in
// the past (negative, NaN) or never (infinite), and negative counts.
func TestConfigValidate(t *testing.T) {
	if cfg := DefaultConfig(); cfg.Validate() != nil {
		t.Fatalf("default config invalid: %v", cfg.Validate())
	}
	off := DefaultConfig()
	off.Server.MTBF, off.Switch.MTBF, off.Link.MTBF = 0, 0, 0
	if err := off.Validate(); err != nil {
		t.Fatalf("MTBF 0 (class disabled) must validate: %v", err)
	}
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"server detect -5", func(c *Config) { c.Server.DetectDelay = -5 }},
		{"server mttr -100", func(c *Config) { c.Server.MTTR = -100 }},
		{"server mttr NaN", func(c *Config) { c.Server.MTTR = nan }},
		{"server mtbf -1", func(c *Config) { c.Server.MTBF = -1 }},
		{"switch mttr +Inf", func(c *Config) { c.Switch.MTTR = inf }},
		{"link detect NaN", func(c *Config) { c.Link.DetectDelay = nan }},
		{"partition mtbf -Inf", func(c *Config) { c.Partition.MTBF = -inf }},
		{"partition mttr NaN", func(c *Config) { c.Partition.MTTR = nan }},
		{"flap mtbf NaN", func(c *Config) { c.Flap.MTBF = nan }},
		{"flap down -2", func(c *Config) { c.Flap.Down = -2 }},
		{"flap up +Inf", func(c *Config) { c.Flap.Up = inf }},
		{"flap cycles -1", func(c *Config) { c.Flap.Cycles = -1 }},
		{"min servers -1", func(c *Config) { c.MinHealthyServers = -1 }},
		{"min switches -1", func(c *Config) { c.MinHealthySwitches = -1 }},
		{"min links -1", func(c *Config) { c.MinHealthyLinks = -1 }},
		{"min pods -1", func(c *Config) { c.MinConnectedPods = -1 }},
	} {
		cfg := DefaultConfig()
		tc.edit(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
	}
}
