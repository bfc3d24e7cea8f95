package megadc

// Repository-level integration tests: the Figure 1 structural
// reproduction (experiment F1) and an end-to-end scenario crossing every
// module boundary.

import (
	"math"
	"slices"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/metrics"
	"megadc/internal/workload"
)

// TestFigure1Topology validates the architecture of the paper's Figure 1
// as built by NewPlatform: access routers per ISP, access links from ARs
// to border routers, an LB switch layer shared globally, logical pods of
// servers behind the fabric, pod managers on each pod, and the global
// manager with the VIP/RIP manager attached.
func TestFigure1Topology(t *testing.T) {
	topo := core.SmallTopology()
	p, err := core.NewPlatform(topo, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}

	// Access connection layer.
	if got := p.Net.NumRouters(); got != topo.ISPs {
		t.Errorf("access routers = %d, want one per ISP (%d)", got, topo.ISPs)
	}
	if got := p.Net.NumBorders(); got != topo.BorderRouters {
		t.Errorf("border routers = %d, want %d", got, topo.BorderRouters)
	}
	if got := len(p.Net.Links()); got != topo.ISPs*topo.LinksPerISP {
		t.Errorf("access links = %d, want %d", got, topo.ISPs*topo.LinksPerISP)
	}
	// Every link connects an AR to a border router.
	for _, l := range p.Net.Links() {
		if p.Net.Router(l.Router) == nil {
			t.Errorf("link %d has no access router", l.ID)
		}
	}

	// Load-balancing layer: globally shared switches with the Catalyst
	// limit structure.
	if got := p.Fabric.NumSwitches(); got != topo.Switches {
		t.Fatalf("switches = %d, want %d", got, topo.Switches)
	}
	for _, sw := range p.Fabric.Switches() {
		if sw.Limits.MaxVIPs <= 0 || sw.Limits.MaxRIPs <= 0 || sw.Limits.ThroughputMbps <= 0 {
			t.Errorf("switch %d has degenerate limits %+v", sw.ID, sw.Limits)
		}
	}

	// Server pods with managers; the global manager on top.
	if got := len(p.Cluster.PodIDs()); got != topo.Pods {
		t.Errorf("pods = %d, want %d", got, topo.Pods)
	}
	for _, pm := range p.PodManagers() {
		pod := p.Cluster.Pod(pm.PodID())
		if pod == nil || pod.NumServers() != topo.ServersPerPod {
			t.Errorf("pod %d has wrong server count", pm.PodID())
		}
	}
	if p.Global == nil || p.VIPRIP == nil || p.DNS == nil {
		t.Fatal("control plane incomplete")
	}

	// An onboarded app is reachable end to end: DNS answer → VIP → home
	// switch → RIP → VM → server → pod.
	app, err := p.OnboardApp("probe", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
		2, core.Demand{CPU: 1, Mbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	vi, err := p.DNS.Resolve(app.ID, p.Rand())
	if err != nil {
		t.Fatal(err)
	}
	vip := p.Fabric.Addr(vi)
	home, ok := p.Fabric.HomeOf(vip)
	if !ok {
		t.Fatalf("resolved VIP %s not homed", vip)
	}
	rip, err := p.Fabric.Switch(home).PickRIP(vip, p.Rand())
	if err != nil {
		t.Fatalf("PickRIP: %v", err)
	}
	rips, tags, _, _ := p.Fabric.Switch(home).AppendWeightsTagged(vip, nil, nil, nil)
	vm := p.Cluster.VM(cluster.VMID(tags[slices.Index(rips, rip)]))
	if vm == nil {
		t.Fatalf("RIP %s has no VM", rip)
	}
	srv := p.Cluster.Server(vm.Server)
	if srv == nil || srv.Pod == cluster.NoPod {
		t.Fatal("VM's server not in a pod")
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}

// TestEndToEndScenario runs a mixed workload with a flash crowd and a
// link imbalance through the full platform and checks convergence,
// conservation, and invariants across every module.
func TestEndToEndScenario(t *testing.T) {
	if testing.Short() {
		t.Skip("long simulation")
	}
	topo := core.SmallTopology()
	topo.Seed = 3
	cfg := core.DefaultConfig()
	p, err := core.NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	slice := cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}
	weights := workload.ZipfWeights(12, 0.9)
	var appIDs []cluster.AppID
	for i := 0; i < 12; i++ {
		a, err := p.OnboardApp("app", slice, 3, core.Demand{CPU: 120 * weights[i], Mbps: 800 * weights[i]})
		if err != nil {
			t.Fatal(err)
		}
		appIDs = append(appIDs, a.ID)
	}
	// Flash crowd on the head app.
	base := p.AppDemand(appIDs[0])
	p.DriveDemand(appIDs[0], workload.FlashCrowd{Base: 1, Peak: 6, Start: 600, Ramp: 60, Hold: 900}, base, 30, 3000)

	p.Start()
	p.Eng.RunUntil(3600)

	if got := p.TotalSatisfaction(); got < 0.93 {
		t.Errorf("final satisfaction = %v", got)
	}
	for _, l := range p.Net.Links() {
		if l.Utilization() > 1.05 {
			t.Errorf("link %d overloaded at the end: %v", l.ID, l.Utilization())
		}
	}
	// Demand conservation: VM demand sums to app demand for every app
	// whose VIPs are exposed.
	for _, id := range appIDs {
		d := p.AppDemand(id)
		var got float64
		for _, vmID := range p.Cluster.App(id).VMIDs() {
			got += p.Cluster.VM(vmID).Demand.CPU
		}
		if math.Abs(got-d.CPU) > 1e-6*(1+d.CPU) {
			t.Errorf("app %d demand %v propagated as %v", id, d.CPU, got)
		}
	}
	// Pod utilization stays reasonably balanced.
	var podUtils []float64
	for _, pm := range p.PodManagers() {
		podUtils = append(podUtils, pm.Utilization())
	}
	if imb := metrics.Imbalance(podUtils); imb > 2.5 {
		t.Errorf("pod imbalance = %v (utils %v)", imb, podUtils)
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}
