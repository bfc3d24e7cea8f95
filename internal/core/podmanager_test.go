package core

import (
	"math"
	"testing"

	"megadc/internal/cluster"
)

// singlePodPlatform builds a platform with one app whose VMs all live in
// pod 0, with the given demand, and all knobs configured per cfg.
func singlePodPlatform(t *testing.T, cfg Config, instances int, demand Demand) (*Platform, *cluster.Application) {
	t.Helper()
	topo := SmallTopology()
	topo.Pods = 1
	topo.ServersPerPod = 8
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, err := p.OnboardApp("app", defaultSlice(), instances, demand)
	if err != nil {
		t.Fatal(err)
	}
	return p, app
}

func TestKnobEGrowsOverloadedVM(t *testing.T) {
	cfg := testConfig().WithKnobs(KnobVMResize)
	// 1 instance with 1-core slice, demand 3 cores → resize should grow.
	p, app := singlePodPlatform(t, cfg, 1, Demand{CPU: 3, Mbps: 100})
	pm := p.PodManagers()[0]
	vmID := app.VMIDs()[0]
	before := p.Cluster.VM(vmID).Slice.CPU
	pm.Step()
	p.Eng.RunFor(cfg.VMResizeLatency + 1)
	after := p.Cluster.VM(vmID).Slice.CPU
	if after <= before {
		t.Fatalf("slice CPU %v -> %v; knob E did not grow", before, after)
	}
	want := 3 * (1 + cfg.VMHeadroom)
	if math.Abs(after-want) > 1e-6 {
		t.Errorf("slice = %v, want %v (demand × headroom)", after, want)
	}
	if pm.Resizes == 0 {
		t.Error("Resizes counter not incremented")
	}
	if got := p.AppSatisfaction(app.ID); math.Abs(got-1) > 1e-9 {
		t.Errorf("satisfaction after resize = %v", got)
	}
}

func TestKnobEShrinksIdleVM(t *testing.T) {
	cfg := testConfig().WithKnobs(KnobVMResize)
	p, app := singlePodPlatform(t, cfg, 1, Demand{CPU: 3, Mbps: 100})
	pm := p.PodManagers()[0]
	vmID := app.VMIDs()[0]
	pm.Step()
	p.Eng.RunFor(cfg.VMResizeLatency + 1)
	grown := p.Cluster.VM(vmID).Slice.CPU
	// Demand drops; slice should shrink back to the app default.
	p.SetAppDemand(app.ID, Demand{CPU: 0.1, Mbps: 10})
	pm.Step()
	p.Eng.RunFor(cfg.VMResizeLatency + 1)
	shrunk := p.Cluster.VM(vmID).Slice.CPU
	if shrunk >= grown {
		t.Fatalf("slice %v -> %v; knob E did not shrink", grown, shrunk)
	}
	if math.Abs(shrunk-defaultSlice().CPU) > 1e-6 {
		t.Errorf("shrunk to %v, want default %v", shrunk, defaultSlice().CPU)
	}
}

func TestKnobEDisabledDoesNothing(t *testing.T) {
	cfg := testConfig().WithKnobs() // everything off
	p, app := singlePodPlatform(t, cfg, 1, Demand{CPU: 3, Mbps: 100})
	pm := p.PodManagers()[0]
	vmID := app.VMIDs()[0]
	before := p.Cluster.VM(vmID).Slice
	pm.Step()
	p.Eng.RunFor(60)
	if p.Cluster.VM(vmID).Slice != before {
		t.Error("disabled knob E still resized")
	}
	if pm.Resizes != 0 {
		t.Error("Resizes counted with knob off")
	}
}

func TestKnobFIntraPodWeights(t *testing.T) {
	cfg := testConfig().WithKnobs(KnobRIPWeights)
	cfg.VIPsPerApp = 1 // single VIP so both RIPs share it
	p, err := NewPlatform(func() Topology { tp := SmallTopology(); tp.Pods = 1; return tp }(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	app, err := p.OnboardApp("app", defaultSlice(), 2, Demand{CPU: 2, Mbps: 200})
	if err != nil {
		t.Fatal(err)
	}
	// Give one VM a bigger slice: weights should shift toward it.
	vms := app.VMIDs()
	if err := p.Cluster.ResizeVM(vms[0], cluster.Resources{CPU: 3, MemMB: 1024, NetMbps: 300}); err != nil {
		t.Fatal(err)
	}
	vip := p.Fabric.VIPsOfApp(app.ID)[0]
	home, _ := p.Fabric.HomeOf(vip)
	sw := p.Fabric.Switch(home)
	_, before, _ := sw.Weights(vip)
	totalBefore := before[0] + before[1]

	pm := p.PodManagers()[0]
	pm.Step()
	p.Eng.RunFor(cfg.SwitchReconfigLatency + 1)

	rips, tags, after, _ := sw.AppendWeightsTagged(vip, nil, nil, nil)
	if len(rips) != 2 {
		t.Fatalf("rips = %v", rips)
	}
	totalAfter := after[0] + after[1]
	if math.Abs(totalAfter-totalBefore) > 1e-6 {
		t.Errorf("total weight changed %v -> %v; must be preserved", totalBefore, totalAfter)
	}
	// The VM with 3 CPU should get 3× the weight of the 1-CPU VM.
	bigIdx := 0
	if cluster.VMID(tags[0]) != vms[0] {
		bigIdx = 1
	}
	ratio := after[bigIdx] / after[1-bigIdx]
	if math.Abs(ratio-3) > 0.01 {
		t.Errorf("weight ratio = %v, want 3 (capacity-proportional)", ratio)
	}
	if pm.WeightAdjusts == 0 {
		t.Error("WeightAdjusts counter not incremented")
	}
}

func TestLocalScaleOutDeploysInstance(t *testing.T) {
	cfg := testConfig().WithKnobs(KnobAppDeployment)
	p, app := singlePodPlatform(t, cfg, 1, Demand{CPU: 4, Mbps: 100})
	pm := p.PodManagers()[0]
	if app.NumInstances() != 1 {
		t.Fatal("setup")
	}
	pm.Step()
	p.Eng.RunFor(cfg.VMDeployLatency + 1)
	if app.NumInstances() != 2 {
		t.Fatalf("instances = %d, want 2 after local scale-out", app.NumInstances())
	}
	if pm.LocalDeploys != 1 {
		t.Errorf("LocalDeploys = %d", pm.LocalDeploys)
	}
	// Repeated steps keep scaling until overload clears.
	for i := 0; i < 6; i++ {
		pm.Step()
		p.Eng.RunFor(cfg.VMDeployLatency + 1)
	}
	if got := p.AppSatisfaction(app.ID); got < 0.99 {
		t.Errorf("satisfaction after scale-out = %v", got)
	}
	if err := p.AuditErr(); err != nil {
		t.Error(err)
	}
}

func TestDefragmentUnblocksGrowth(t *testing.T) {
	cfg := testConfig().WithKnobs(KnobVMResize)
	cfg.VIPsPerApp = 1
	topo := SmallTopology()
	topo.Pods = 1
	topo.ServersPerPod = 2
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Fill server 0 completely: a 7-CPU blocker VM plus the 1-CPU app VM.
	blockApp, err := p.OnboardApp("blocker", cluster.Resources{CPU: 7, MemMB: 1024, NetMbps: 100}, 0, Demand{})
	if err != nil {
		t.Fatal(err)
	}
	srv0 := p.Cluster.PodIDs()[0]
	_ = srv0
	servers := p.Cluster.Pod(p.Cluster.PodIDs()[0]).ServerIDs()
	blocker, err := p.Cluster.PlaceVM(blockApp.ID, servers[0], cluster.Resources{CPU: 7, MemMB: 1024, NetMbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	p.Cluster.Start(blocker.ID)
	// Bind each hand-placed VM's RIP the way DeployInstance does,
	// bypassing it on purpose to pin both VMs to the full server.
	bind := func(app cluster.AppID, vm cluster.VMID) {
		rip, err := p.VIPRIP.AllocRIP()
		if err != nil {
			t.Fatal(err)
		}
		vip, sw, err := p.VIPRIP.AddRIP(app, rip, 1, 0, int32(vm))
		if err != nil {
			t.Fatal(err)
		}
		p.bindRIP(rip, vm, vip, sw)
		p.reconcileExposure(app)
	}
	bind(blockApp.ID, blocker.ID)
	hot, err := p.OnboardApp("hot", defaultSlice(), 0, Demand{})
	if err != nil {
		t.Fatal(err)
	}
	vm, err := p.Cluster.PlaceVM(hot.ID, servers[0], defaultSlice())
	if err != nil {
		t.Fatal(err)
	}
	p.Cluster.Start(vm.ID)
	bind(hot.ID, vm.ID)
	p.SetAppDemand(hot.ID, Demand{CPU: 4})
	if free := p.Cluster.Server(servers[0]).Free().CPU; free > 1e-9 {
		t.Fatalf("setup: server 0 has %v free CPU", free)
	}
	pm := p.PodManagers()[0]
	// Step 1: growth blocked; defrag migrates the smaller VM... the
	// victim is the smallest movable VM, which is the hot one itself —
	// moving it to the empty server also unblocks it.
	pm.Step()
	p.Eng.RunFor(cfg.VMMigrateLatency + 1)
	if pm.Defrags != 1 {
		t.Fatalf("Defrags = %d, want 1", pm.Defrags)
	}
	// After migration, a further step grows the slice on the new server.
	pm.Step()
	p.Eng.RunFor(cfg.VMResizeLatency + 1)
	if got := p.Cluster.VM(vm.ID).Slice.CPU; got <= 1 {
		t.Errorf("slice after defrag+resize = %v, want > 1", got)
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}

func TestPodUtilizationMeasures(t *testing.T) {
	cfg := testConfig()
	p, _ := singlePodPlatform(t, cfg, 2, Demand{CPU: 16, Mbps: 100})
	pm := p.PodManagers()[0]
	// Pod: 8 servers × 8 CPU = 64; demand 16 → 0.25.
	if got := pm.Utilization(); math.Abs(got-0.25) > 1e-9 {
		t.Errorf("Utilization = %v, want 0.25", got)
	}
	// Slice utilization: 2 VMs × 1 CPU / 64 but mem dominates:
	// 2×1024/131072 MB; CPU 2/64 = 0.03125 is the max fraction.
	if got := pm.SliceUtilization(); got <= 0 {
		t.Errorf("SliceUtilization = %v", got)
	}
	if got := pm.DecisionSpace(); got != 8*2 {
		t.Errorf("DecisionSpace = %d, want 16", got)
	}
}

func TestBuildPlacementProblem(t *testing.T) {
	cfg := testConfig()
	p, app := singlePodPlatform(t, cfg, 3, Demand{CPU: 6, Mbps: 100})
	pm := p.PodManagers()[0]
	prob, apps, servers := pm.BuildPlacementProblem()
	if prob.NumMachines() != 8 || len(servers) != 8 {
		t.Errorf("machines = %d", prob.NumMachines())
	}
	if prob.NumApps() != 1 || apps[0] != app.ID {
		t.Errorf("apps = %v", apps)
	}
	if math.Abs(prob.AppDemand[0]-6) > 1e-9 {
		t.Errorf("demand = %v", prob.AppDemand[0])
	}
	if len(prob.Current[0]) != 3 {
		t.Errorf("current instances = %d", len(prob.Current[0]))
	}
	if err := prob.Validate(); err != nil {
		t.Errorf("problem invalid: %v", err)
	}
	elapsed, satisfied, changes := pm.RunPlacement()
	if elapsed < 0 {
		t.Error("negative elapsed")
	}
	if satisfied < 0.99 {
		t.Errorf("placement satisfied = %v", satisfied)
	}
	if changes < 0 {
		t.Errorf("changes = %d", changes)
	}
}

func TestRunPlacementEmptyPod(t *testing.T) {
	topo := SmallTopology()
	p, err := NewPlatform(topo, testConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, satisfied, _ := p.PodManagers()[0].RunPlacement()
	if satisfied != 1 {
		t.Errorf("empty pod satisfied = %v", satisfied)
	}
}
