package core

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"megadc/internal/cluster"
	"megadc/internal/ctrlplane"
	"megadc/internal/lbswitch"
)

// weightDecision is one knob-F adjustment a scan would issue.
type weightDecision struct {
	vip     lbswitch.VIP
	weights []float64
}

// refDesiredWeights is the knob-F computation as the switch-by-switch
// scan did it: fresh copies of the weight and tag vectors, each RIP
// resolved to its VM through its entry's tag.
func refDesiredWeights(pm *PodManager, sw *lbswitch.Switch, vip lbswitch.VIP) ([]float64, bool) {
	rips, tags, weights, err := sw.AppendWeightsTagged(vip, nil, nil, nil)
	if err != nil {
		return nil, false
	}
	var inPod []int
	var inPodTotal, capTotal float64
	caps := make([]float64, len(rips))
	for i := range rips {
		vm := pm.p.Cluster.VM(cluster.VMID(tags[i]))
		if vm == nil {
			continue
		}
		srv := pm.p.Cluster.Server(vm.Server)
		if srv == nil || srv.Pod != pm.pod {
			continue
		}
		inPod = append(inPod, i)
		inPodTotal += weights[i]
		caps[i] = vm.Slice.CPU
		capTotal += caps[i]
	}
	if len(inPod) < 2 || inPodTotal <= 0 || capTotal <= 0 {
		return nil, false
	}
	newWeights := append([]float64(nil), weights...)
	changed := false
	for _, i := range inPod {
		w := inPodTotal * caps[i] / capTotal
		if w <= 0 {
			w = 1e-6
		}
		if diff := w - newWeights[i]; diff > weightDeadband*inPodTotal || diff < -weightDeadband*inPodTotal {
			changed = true
		}
		newWeights[i] = w
	}
	if !changed {
		return nil, false
	}
	var oldTotal, newTotal float64
	for i := range weights {
		oldTotal += weights[i]
		newTotal += newWeights[i]
	}
	if newTotal > 0 {
		k := oldTotal / newTotal
		for i := range newWeights {
			newWeights[i] *= k
		}
	}
	return newWeights, true
}

// refWeightScan is the brute-force reference: every VIP on every serving
// switch, switches in ID order, each switch's VIPs in insertion order.
func refWeightScan(pm *PodManager) []weightDecision {
	var out []weightDecision
	for _, sw := range pm.p.Fabric.Switches() {
		if !sw.Serving() {
			continue
		}
		for _, vip := range sw.VIPs() {
			if w, ok := refDesiredWeights(pm, sw, vip); ok {
				out = append(out, weightDecision{vip, w})
			}
		}
	}
	return out
}

// indexedWeightScan is what adjustIntraPodWeights issues: the pod-local
// candidates, in their scan order, through desiredWeights.
func indexedWeightScan(pm *PodManager) []weightDecision {
	var out []weightDecision
	for _, c := range pm.weightCandidates() {
		if w, ok := pm.desiredWeights(c.sw, c.vip); ok {
			out = append(out, weightDecision{c.vip, w})
		}
	}
	return out
}

// sameDecisions compares two decision sequences, weights bit for bit.
func sameDecisions(a, b []weightDecision) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d decisions, reference has %d", len(a), len(b))
	}
	for i := range a {
		if a[i].vip != b[i].vip {
			return fmt.Errorf("decision %d is for %s, reference %s", i, a[i].vip, b[i].vip)
		}
		if !slices.EqualFunc(a[i].weights, b[i].weights, func(x, y float64) bool {
			return math.Float64bits(x) == math.Float64bits(y)
		}) {
			return fmt.Errorf("%s weights %v, reference %v", a[i].vip, a[i].weights, b[i].weights)
		}
	}
	return nil
}

// TestPodLocalWeightScanMatchesReference drives the chaos scenario —
// server and switch faults (including switch-failure re-homing and
// orphan re-homing on repair), VIP transfers, server transfers, slice
// resizes and control-plane partitions, with every control loop
// running — and checks after every operation that, for every pod, the
// pod-local candidate index yields exactly the knob-F decisions of the
// brute-force scan over every switch and VIP, in the same order.
func TestPodLocalWeightScanMatchesReference(t *testing.T) {
	decisions := 0
	f := func(ops []uint8, seed int64) bool {
		topo := SmallTopology()
		topo.Seed = seed
		cfg := DefaultConfig()
		cfg.VIPsPerApp = 2
		cfg.Ctrl.Enable = true
		cfg.Ctrl.Default = ctrlplane.LinkConfig{Delay: 0.5}
		p, err := NewPlatform(topo, cfg)
		if err != nil {
			return false
		}
		defer p.Close()
		rng := rand.New(rand.NewSource(seed))
		var apps []cluster.AppID
		for i := 0; i < 5; i++ {
			a, err := p.OnboardApp("eq", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
				8, Demand{CPU: 4, Mbps: 80})
			if err != nil {
				return false
			}
			apps = append(apps, a.ID)
		}
		p.Start()
		check := func(op uint8) bool {
			for _, pm := range p.PodManagers() {
				ref := refWeightScan(pm)
				if err := sameDecisions(indexedWeightScan(pm), ref); err != nil {
					t.Logf("pod %d after op %d: %v", pm.PodID(), op, err)
					return false
				}
				decisions += len(ref)
			}
			return true
		}
		if !check(255) {
			return false
		}
		for _, op := range ops {
			p.Eng.RunFor(10)
			app := apps[rng.Intn(len(apps))]
			switch op % 12 {
			case 0: // demand spike
				p.SetAppDemand(app, Demand{CPU: rng.Float64() * 30, Mbps: rng.Float64() * 400})
			case 1: // deploy into a random pod
				p.DeployInstance(app, cluster.PodID(rng.Intn(topo.Pods)))
			case 2: // remove an instance (keep at least one)
				if a := p.Cluster.App(app); a.NumInstances() > 1 {
					vms := a.VMIDs()
					p.RemoveInstance(vms[rng.Intn(len(vms))])
				}
			case 3: // resize a VM: in-pod capacities diverge from weights
				if vms := p.Cluster.App(app).VMIDs(); len(vms) > 0 {
					id := vms[rng.Intn(len(vms))]
					s := p.Cluster.VM(id).Slice
					s.CPU = 0.25 + rng.Float64()*2
					p.Cluster.ResizeVM(id, s)
				}
			case 4: // forced VIP transfer
				if vips := p.Fabric.VIPsOfApp(app); len(vips) > 0 {
					p.Fabric.TransferVIP(vips[rng.Intn(len(vips))], lbswitch.SwitchID(rng.Intn(topo.Switches)), true)
					p.Propagate()
				}
			case 5: // server transfer between pods
				ids := p.Cluster.ServerIDs()
				p.Cluster.TransferServer(ids[rng.Intn(len(ids))], cluster.PodID(rng.Intn(topo.Pods)))
			case 6: // server failure (spare a few serving servers)
				ids := p.Cluster.ServerIDs()
				if srv := p.Cluster.Server(ids[rng.Intn(len(ids))]); srv.Serving() {
					p.FailServer(srv.ID)
				}
			case 7: // switch failure: detection re-homes or drops its VIPs
				alive := 0
				for _, sw := range p.Fabric.Switches() {
					if sw.Serving() {
						alive++
					}
				}
				if id := lbswitch.SwitchID(rng.Intn(topo.Switches)); alive > 1 && p.Fabric.Switch(id).Serving() {
					p.FailSwitch(id)
				}
			case 8: // silent switch fault: VIPs stay homed on a dead switch
				if id := lbswitch.SwitchID(rng.Intn(topo.Switches)); p.Fabric.Switch(id).Serving() {
					p.FaultSwitch(id)
					p.Eng.After(20, func() { p.DetectSwitch(id) })
				}
			case 9: // repair everything; repaired switches re-home orphans
				for _, id := range p.Cluster.ServerIDs() {
					if !p.Cluster.Server(id).Serving() {
						p.RepairServer(id)
					}
				}
				for _, sw := range p.Fabric.Switches() {
					if !sw.Serving() {
						p.RepairSwitch(sw.ID)
					}
				}
			case 10: // toggle a control-plane partition
				pod := ctrlplane.Pod(rng.Intn(topo.Pods))
				switch {
				case p.Ctrl().Partitioned(pod):
					p.Ctrl().Heal(pod)
				case p.Ctrl().ConnectedPods(topo.Pods) > 1:
					p.Ctrl().Partition(pod)
				}
			case 11: // let the loops act for a while
				p.Eng.RunFor(120)
			}
			if !check(op % 12) {
				return false
			}
		}
		return true
	}
	max := 20
	if testing.Short() {
		max = 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: max, Rand: rand.New(rand.NewSource(42))}); err != nil {
		t.Fatal(err)
	}
	t.Logf("compared %d knob-F decisions", decisions)
	if decisions == 0 {
		t.Fatal("no knob-F decision was ever compared; the scenario does not exercise the scan")
	}
}

// TestDesiredWeightsInDeadbandAllocFree pins the knob-F step for a
// converged pod — candidate index plus the deadband check — at zero
// heap allocations once the scratch is warm.
func TestDesiredWeightsInDeadbandAllocFree(t *testing.T) {
	cfg := testConfig().WithKnobs(KnobRIPWeights)
	cfg.VIPsPerApp = 1
	p, _ := singlePodPlatform(t, cfg, 4, Demand{CPU: 2, Mbps: 200})
	pm := p.PodManagers()[0]
	cands := pm.weightCandidates()
	if len(cands) != 1 {
		t.Fatalf("%d knob-F candidates, want the app's one VIP", len(cands))
	}
	sw, vip := cands[0].sw, cands[0].vip
	if _, ok := pm.desiredWeights(sw, vip); ok {
		t.Fatal("equal slices under equal weights should sit inside the deadband")
	}
	if n := testing.AllocsPerRun(100, func() { pm.desiredWeights(sw, vip) }); n != 0 {
		t.Errorf("desiredWeights inside the deadband allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { pm.adjustIntraPodWeights() }); n != 0 {
		t.Errorf("a converged pod's knob-F scan allocates %v times, want 0", n)
	}
}

// TestCloseStopsPropagateWorkers checks that Close releases the parked
// Propagate workers — the goroutine count returns to its baseline — and
// that it is idempotent and leaves the platform usable.
func TestCloseStopsPropagateWorkers(t *testing.T) {
	base := runtime.NumGoroutine()
	p := allocTestPlatform(t, 4) // wide enough to spawn the pool
	if runtime.NumGoroutine() <= base {
		t.Fatal("setup: the parallel Propagate pool did not start")
	}
	p.Close()
	p.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, baseline %d", runtime.NumGoroutine(), base)
		}
		time.Sleep(time.Millisecond)
	}
	p.PropagateFull() // sequential after Close
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
	if runtime.NumGoroutine() > base {
		t.Error("Propagate after Close respawned workers")
	}
}

// TestResizeScanConvergedAllocFree pins the knob-E scan of a converged
// pod at zero heap allocations: it walks the pod's server list and each
// server's VM list as read-only views and schedules nothing.
func TestResizeScanConvergedAllocFree(t *testing.T) {
	cfg := testConfig().WithKnobs(KnobVMResize)
	p, app := singlePodPlatform(t, cfg, 4, Demand{CPU: 6, Mbps: 200})
	pm := p.PodManagers()[0]
	for i := 0; i < 10; i++ {
		pm.Step()
		p.Eng.RunFor(cfg.VMMigrateLatency + cfg.VMResizeLatency + 1)
	}
	resizes := pm.Resizes
	if resizes == 0 {
		t.Fatal("no VM was resized; the scan has nothing to converge on")
	}
	for _, id := range app.VMIDs() {
		if vm := p.Cluster.VM(id); vm.Slice == defaultSlice() {
			t.Fatalf("vm %d kept the default slice; the pod did not converge", id)
		}
	}
	if n := testing.AllocsPerRun(100, pm.resizeVMs); n != 0 {
		t.Errorf("a converged pod's resize scan allocates %v times, want 0", n)
	}
	p.Eng.RunFor(cfg.VMResizeLatency + 1)
	if pm.Resizes != resizes {
		t.Errorf("the converged scan resized %d more VMs", pm.Resizes-resizes)
	}
}
