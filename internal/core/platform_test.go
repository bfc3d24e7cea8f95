package core

import (
	"maps"
	"math"
	"slices"
	"strings"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/lbswitch"
	"megadc/internal/trace"
	"megadc/internal/workload"
)

func testConfig() Config {
	cfg := DefaultConfig()
	cfg.VIPsPerApp = 2
	return cfg
}

func newTestPlatform(t *testing.T, cfg Config) *Platform {
	t.Helper()
	p, err := NewPlatform(SmallTopology(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestConfigValidate(t *testing.T) {
	good := DefaultConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.MaxPodServers = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero MaxPodServers accepted")
	}
	bad = DefaultConfig()
	bad.PodTargetUtil = 0.9
	bad.PodOverloadUtil = 0.8
	if err := bad.Validate(); err == nil {
		t.Error("target > overload accepted")
	}
	bad = DefaultConfig()
	bad.VIPsPerApp = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero VIPsPerApp accepted")
	}
	bad = DefaultConfig()
	bad.PodControlInterval = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero interval accepted")
	}
	nan, inf := math.NaN(), math.Inf(1)
	for name, mutate := range map[string]func(*Config){
		"NaN pod interval":         func(c *Config) { c.PodControlInterval = nan },
		"+Inf global interval":     func(c *Config) { c.GlobalControlInterval = inf },
		"negative switch reconfig": func(c *Config) { c.SwitchReconfigLatency = -1 },
		"NaN DNS update":           func(c *Config) { c.DNSUpdateLatency = nan },
		"negative VM resize":       func(c *Config) { c.VMResizeLatency = -1 },
		"NaN VM resize":            func(c *Config) { c.VMResizeLatency = nan },
		"+Inf VM deploy":           func(c *Config) { c.VMDeployLatency = inf },
		"-Inf VM migrate":          func(c *Config) { c.VMMigrateLatency = -inf },
		"negative vacate per VM":   func(c *Config) { c.VacateLatencyPerVM = -0.5 },
		"NaN drain margin":         func(c *Config) { c.DrainMargin = nan },
		"negative trace sample":    func(c *Config) { c.TraceSampleEvery = -30 },
		"negative workers":         func(c *Config) { c.PropagateWorkers = -1 },
	} {
		bad = DefaultConfig()
		mutate(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", name)
		}
	}
	zero := DefaultConfig()
	zero.VMResizeLatency, zero.DrainMargin, zero.TraceSampleEvery = 0, 0, 0
	if err := zero.Validate(); err != nil {
		t.Errorf("zero latencies rejected: %v", err)
	}
}

func TestConfigWithKnobs(t *testing.T) {
	cfg := DefaultConfig().WithKnobs(KnobVMResize, KnobRIPWeights)
	if !cfg.Enabled(KnobVMResize) || !cfg.Enabled(KnobRIPWeights) {
		t.Error("listed knobs not enabled")
	}
	if cfg.Enabled(KnobSelectiveExposure) || cfg.Enabled(KnobServerTransfer) {
		t.Error("unlisted knobs enabled")
	}
}

func TestKnobStrings(t *testing.T) {
	for k := Knob(0); k < numKnobs; k++ {
		if strings.HasPrefix(k.String(), "Knob(") {
			t.Errorf("knob %d has no name", int(k))
		}
	}
	if Knob(99).String() != "Knob(99)" {
		t.Error("unknown knob string wrong")
	}
}

func TestNewPlatformTopology(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	topo := SmallTopology()
	if got := len(p.Net.Links()); got != topo.ISPs*topo.LinksPerISP {
		t.Errorf("links = %d", got)
	}
	if got := p.Net.NumRouters(); got != topo.ISPs {
		t.Errorf("routers = %d", got)
	}
	if got := p.Net.NumBorders(); got != topo.BorderRouters {
		t.Errorf("borders = %d", got)
	}
	if got := p.Fabric.NumSwitches(); got != topo.Switches {
		t.Errorf("switches = %d", got)
	}
	if got := len(p.Cluster.PodIDs()); got != topo.Pods {
		t.Errorf("pods = %d", got)
	}
	if got := len(p.Cluster.ServerIDs()); got != topo.Pods*topo.ServersPerPod {
		t.Errorf("servers = %d", got)
	}
	if got := len(p.PodManagers()); got != topo.Pods {
		t.Errorf("pod managers = %d", got)
	}
	if err := p.AuditErr(); err != nil {
		t.Error(err)
	}
}

func TestNewPlatformValidation(t *testing.T) {
	bad := SmallTopology()
	bad.Switches = 0
	if _, err := NewPlatform(bad, testConfig()); err == nil {
		t.Error("zero switches accepted")
	}
	bad = SmallTopology()
	bad.ISPs = 0
	if _, err := NewPlatform(bad, testConfig()); err == nil {
		t.Error("zero ISPs accepted")
	}
	cfg := testConfig()
	cfg.VIPsPerApp = 0
	if _, err := NewPlatform(SmallTopology(), cfg); err == nil {
		t.Error("invalid config accepted")
	}
}

// TestNewPlatformRejectsBadTopology: a non-positive or non-finite DNS
// TTL, link capacity or server capacity component is a construction
// error. Before, a zero TTL panicked inside dnsctl.New, a NaN TTL made
// client caches never expire, and a NaN link capacity was accepted.
func TestNewPlatformRejectsBadTopology(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	cases := []struct {
		name   string
		mutate func(*Topology)
	}{
		{"zero TTL", func(t *Topology) { t.DNSTTLSeconds = 0 }},
		{"negative TTL", func(t *Topology) { t.DNSTTLSeconds = -60 }},
		{"NaN TTL", func(t *Topology) { t.DNSTTLSeconds = nan }},
		{"+Inf TTL", func(t *Topology) { t.DNSTTLSeconds = inf }},
		{"zero link", func(t *Topology) { t.LinkMbps = 0 }},
		{"NaN link", func(t *Topology) { t.LinkMbps = nan }},
		{"+Inf link", func(t *Topology) { t.LinkMbps = inf }},
		{"zero server CPU", func(t *Topology) { t.ServerCapacity.CPU = 0 }},
		{"NaN server memory", func(t *Topology) { t.ServerCapacity.MemMB = nan }},
		{"-Inf server network", func(t *Topology) { t.ServerCapacity.NetMbps = math.Inf(-1) }},
		{"+Inf server CPU", func(t *Topology) { t.ServerCapacity.CPU = inf }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			topo := SmallTopology()
			c.mutate(&topo)
			p, err := NewPlatform(topo, testConfig())
			if err == nil {
				p.Close()
				t.Fatalf("%s accepted", c.name)
			}
		})
	}
	if _, err := NewPlatform(SmallTopology(), testConfig()); err != nil {
		t.Fatalf("small topology rejected: %v", err)
	}
}

func defaultSlice() cluster.Resources {
	return cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}
}

func TestOnboardApp(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	app, err := p.OnboardApp("foo.com", defaultSlice(), 4, Demand{CPU: 2, Mbps: 200})
	if err != nil {
		t.Fatal(err)
	}
	// VIPsPerApp VIPs exist, registered in DNS and advertised.
	vips := p.Fabric.VIPsOfApp(app.ID)
	if len(vips) != p.Cfg.VIPsPerApp {
		t.Fatalf("VIPs = %d, want %d", len(vips), p.Cfg.VIPsPerApp)
	}
	for _, vip := range vips {
		if got := p.Net.ActiveLinks(p.handleOf(vip)); len(got) != 1 {
			t.Errorf("VIP %s advertised on %d links, want 1", vip, len(got))
		}
	}
	if got := len(p.DNS.VIPs(app.ID)); got != p.Cfg.VIPsPerApp {
		t.Errorf("DNS VIPs = %d", got)
	}
	// 4 instances, spread across pods, each with a RIP.
	if app.NumInstances() != 4 {
		t.Errorf("instances = %d", app.NumInstances())
	}
	for _, vmID := range app.VMIDs() {
		if _, ok := p.RIPForVM(vmID); !ok {
			t.Errorf("vm %d has no RIP", vmID)
		}
	}
	covered := 0
	for _, pod := range p.Cluster.PodIDs() {
		if p.Cluster.Covers(app.ID, pod) {
			covered++
		}
	}
	if covered != 4 {
		t.Errorf("app covers %d pods, want 4 (round-robin)", covered)
	}
	if err := p.AuditErr(); err != nil {
		t.Error(err)
	}
}

func TestSwitchPodHierarchyOnPlatform(t *testing.T) {
	// onboard builds a two-switch-pod platform under the named policy,
	// with a recorder attached, and onboards four apps through the
	// hierarchy.
	onboard := func(pol string) (*Platform, *trace.Recorder) {
		topo := SmallTopology()
		topo.SwitchPods = 2
		cfg, rec := tracedConfig()
		cfg.VIPsPerApp = 2
		cfg.Policy = pol
		p, err := NewPlatform(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		if p.SwitchHier == nil || p.SwitchHier.NumPods() != 2 {
			t.Fatal("switch hierarchy not enabled")
		}
		for i := 0; i < 4; i++ {
			if _, err := p.OnboardApp("a", defaultSlice(), 2, Demand{CPU: 1, Mbps: 50}); err != nil {
				t.Fatal(err)
			}
		}
		return p, rec
	}
	p, rec := onboard("")
	// Onboarding works through the hierarchy and still spreads VIPs.
	total, maxVIPs := 0, 0
	for _, sw := range p.Fabric.Switches() {
		total += sw.NumVIPs()
		if sw.NumVIPs() > maxVIPs {
			maxVIPs = sw.NumVIPs()
		}
	}
	if total != 8 {
		t.Errorf("total VIPs = %d, want 8", total)
	}
	if maxVIPs > 4 { // rough balance: no switch hoards more than half
		t.Errorf("switch hoards %d of %d VIPs", maxVIPs, total)
	}
	if p.SwitchHier.Scans == 0 {
		t.Error("hierarchy never scanned — flat path used?")
	}
	if err := p.SwitchHier.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if err := p.AuditErr(); err != nil {
		t.Error(err)
	}
	// Every VIP placed through the hierarchy is traced exactly once, as
	// the flat manager traces its placements.
	events := rec.Events()
	for _, sw := range p.Fabric.Switches() {
		for _, vip := range sw.VIPs() {
			n := 0
			for i := range events {
				if events[i].Type == trace.EvAddVIP && events[i].Touches(trace.VIP(vip)) {
					n++
				}
			}
			if n != 1 {
				t.Errorf("vip %s: %d add-vip events, want 1", vip, n)
			}
		}
	}
	// The switch inside a pod is chosen by the configured policy: a
	// round-robin platform places the same VIPs differently from greedy.
	homes := func(p *Platform) map[lbswitch.VIP]lbswitch.SwitchID {
		out := make(map[lbswitch.VIP]lbswitch.SwitchID)
		for _, sw := range p.Fabric.Switches() {
			for _, vip := range sw.VIPs() {
				out[vip] = sw.ID
			}
		}
		return out
	}
	rr, _ := onboard("round-robin")
	if maps.Equal(homes(p), homes(rr)) {
		t.Errorf("round-robin placed every VIP where greedy did: %v", homes(rr))
	}
	// Invalid pod counts surface at construction.
	bad := SmallTopology()
	bad.SwitchPods = 99
	if _, err := NewPlatform(bad, testConfig()); err == nil {
		t.Error("more switch pods than switches accepted")
	}
}

func TestDemandPropagation(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	app, err := p.OnboardApp("foo.com", defaultSlice(), 2, Demand{CPU: 2, Mbps: 400})
	if err != nil {
		t.Fatal(err)
	}
	// Total VM CPU demand equals app demand.
	var cpu, mbps float64
	for _, vmID := range app.VMIDs() {
		vm := p.Cluster.VM(vmID)
		cpu += vm.Demand.CPU
		mbps += vm.Demand.NetMbps
	}
	if math.Abs(cpu-2) > 1e-9 {
		t.Errorf("total VM CPU demand = %v, want 2", cpu)
	}
	if math.Abs(mbps-400) > 1e-9 {
		t.Errorf("total VM Mbps = %v, want 400", mbps)
	}
	// Switch loads sum to app Mbps.
	if got := p.Fabric.TotalThroughputMbps(); math.Abs(got-400) > 1e-9 {
		t.Errorf("fabric throughput = %v", got)
	}
	// Link loads sum to app Mbps.
	var linkTotal float64
	for _, l := range p.Net.LinkLoads() {
		linkTotal += l
	}
	if math.Abs(linkTotal-400) > 1e-9 {
		t.Errorf("link total = %v", linkTotal)
	}
	// Satisfaction: slices are 1 CPU each, demand 1 CPU per VM → 1.0.
	if got := p.AppSatisfaction(app.ID); math.Abs(got-1) > 1e-9 {
		t.Errorf("satisfaction = %v", got)
	}
	if got := p.TotalSatisfaction(); math.Abs(got-1) > 1e-9 {
		t.Errorf("total satisfaction = %v", got)
	}
}

func TestSatisfactionUnderOverload(t *testing.T) {
	p := newTestPlatform(t, testConfig().WithKnobs()) // all knobs off
	app, err := p.OnboardApp("foo.com", defaultSlice(), 2, Demand{CPU: 8, Mbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	// 8 CPU demand over 2 VMs with 1-core slices → at most 2 served.
	got := p.AppSatisfaction(app.ID)
	if math.Abs(got-0.25) > 1e-9 {
		t.Errorf("satisfaction = %v, want 0.25", got)
	}
}

func TestSetAppDemandZeroClears(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	app, _ := p.OnboardApp("a", defaultSlice(), 1, Demand{CPU: 1, Mbps: 100})
	p.SetAppDemand(app.ID, Demand{})
	if d := p.AppDemand(app.ID); d != (Demand{}) {
		t.Errorf("demand = %+v", d)
	}
	if got := p.Fabric.TotalThroughputMbps(); got != 0 {
		t.Errorf("residual fabric load %v", got)
	}
	if got := p.AppSatisfaction(app.ID); got != 1 {
		t.Errorf("zero-demand satisfaction = %v", got)
	}
}

func TestRemoveInstance(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	app, _ := p.OnboardApp("a", defaultSlice(), 2, Demand{CPU: 1, Mbps: 100})
	vms := app.VMIDs()
	rip, _ := p.RIPForVM(vms[0])
	if err := p.RemoveInstance(vms[0]); err != nil {
		t.Fatal(err)
	}
	if _, ok := p.RIPForVM(vms[0]); ok {
		t.Error("RIP binding survived removal")
	}
	for _, sw := range p.Fabric.Switches() {
		for _, vip := range sw.VIPs() {
			if rips, _, _ := sw.Weights(vip); slices.Contains(rips, rip) {
				t.Errorf("RIP %s still configured under %s", rip, vip)
			}
		}
	}
	if app.NumInstances() != 1 {
		t.Errorf("instances = %d", app.NumInstances())
	}
	p.Propagate()
	if err := p.AuditErr(); err != nil {
		t.Error(err)
	}
	if err := p.RemoveInstance(999); err == nil {
		t.Error("removing unknown VM accepted")
	}
}

func TestDeployInstanceNoRoom(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	// Fill pod 0 completely.
	pod := p.Cluster.PodIDs()[0]
	huge := SmallTopology().ServerCapacity
	app, err := p.OnboardApp("filler", huge, 0, Demand{})
	if err != nil {
		t.Fatal(err)
	}
	for range p.Cluster.Pod(pod).ServerIDs() {
		if _, err := p.DeployInstance(app.ID, pod); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := p.DeployInstance(app.ID, pod); err == nil {
		t.Error("deploy into full pod accepted")
	}
	if _, err := p.DeployInstance(999, pod); err == nil {
		t.Error("deploy of unknown app accepted")
	}
}

func TestDriveDemand(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	app, _ := p.OnboardApp("a", defaultSlice(), 2, Demand{})
	profile := workload.Step{Before: 1, After: 3, At: 50}
	p.DriveDemand(app.ID, profile, Demand{CPU: 1, Mbps: 100}, 10, 100)
	p.Eng.RunUntil(40)
	if d := p.AppDemand(app.ID); math.Abs(d.CPU-1) > 1e-9 {
		t.Errorf("demand before step = %v", d.CPU)
	}
	p.Eng.RunUntil(60)
	if d := p.AppDemand(app.ID); math.Abs(d.CPU-3) > 1e-9 {
		t.Errorf("demand after step = %v", d.CPU)
	}
	p.Eng.RunUntil(200)
	if p.Eng.Pending() != 0 {
		t.Errorf("driver did not stop: %d pending", p.Eng.Pending())
	}
}

func TestOnboardSpreadsVIPsOverLinks(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	for i := 0; i < 6; i++ {
		// Zero demand keeps links tied so the round-robin tiebreak
		// spreads advertisements uniformly.
		if _, err := p.OnboardApp("app", defaultSlice(), 2, Demand{}); err != nil {
			t.Fatal(err)
		}
	}
	// 12 VIPs over 4 links → 3 each.
	counts := make(map[lbswitch.VIP]bool)
	_ = counts
	loads := make([]int, len(p.Net.Links()))
	for _, l := range p.Net.Links() {
		loads[int(l.ID)] = len(p.Net.VIPsOnLink(l.ID))
	}
	for i, n := range loads {
		if n != 3 {
			t.Errorf("link %d carries %d VIPs, want 3 (%v)", i, n, loads)
		}
	}
}
