package megadc

import (
	"fmt"
	"runtime"
	"testing"

	"megadc/internal/causal"
	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/ctrlplane"
	"megadc/internal/faults"
	"megadc/internal/metrics"
	"megadc/internal/requests"
	"megadc/internal/spans"
	"megadc/internal/trace"
	"megadc/internal/workload"
)

// elasticRunBudgetMB bounds the heap bytes the elastic run below
// allocates after set-up. It reads 7.6 MB, of which the run keeps 4.6:
// 4,096 causal trees, the evicted trees' nodes waiting for reuse, and
// the pooled bus and actuation records. The rest is mostly the
// managers' per-decision closures and the DNS weight copies their
// deferred effects capture. Before the causal trees, bus messages and
// actuation records were recycled, the run allocated 14.8 MB.
const elasticRunBudgetMB = 10

// TestElasticRunAllocBudget runs the 1K-server elastic scenario with
// every subsystem on — the managers, a serialized reconfiguration
// pipeline, a lossy control bus, fault churn with pod partitions,
// requests, the flight recorder, spans and the causal assembler — and
// bounds the bytes its run phase allocates.
func TestElasticRunAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("runs a 960-simulated-second 1K-server scenario")
	}
	const pods, servers, switches, nApps, dur = 16, 64, 16, 512, 900.0
	topo := core.SmallTopology()
	topo.Pods, topo.ServersPerPod, topo.Switches, topo.ISPs = pods, servers, switches, 4
	reg := metrics.NewRegistry()
	cfg := core.DefaultConfig()
	cfg.SerializeReconfig = true
	cfg.Trace = trace.NewRecorder(trace.DefaultRingSize)
	cfg.Spans = spans.New(reg)
	cfg.Causal = causal.New(reg)
	cfg.Ctrl.Enable = true
	cfg.Ctrl.Default = ctrlplane.LinkConfig{Delay: 0.5, Jitter: 0.2, LossProb: 0.02}
	cfg.Ctrl.Registry = reg
	p, err := core.NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)

	weights := workload.ZipfWeights(nApps, 0.9)
	totalCPU := 0.55 * topo.ServerCapacity.CPU * pods * servers
	totalMbps := 0.55 * min(topo.LinkMbps*float64(topo.ISPs*topo.LinksPerISP),
		topo.SwitchLimits.ThroughputMbps*switches)
	slice := cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}
	apps := make([]cluster.AppID, nApps)
	for i := range apps {
		a, err := p.OnboardApp(fmt.Sprintf("app-%02d", i), slice, 3,
			core.Demand{CPU: totalCPU * weights[i], Mbps: totalMbps * weights[i]})
		if err != nil {
			t.Fatal(err)
		}
		apps[i] = a.ID
	}
	rcfg := requests.DefaultConfig()
	rcfg.Profile = workload.Constant(200)
	rcfg.StopAt = dur
	rcfg.Registry = reg
	eng, err := requests.New(p, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.AddAppsZipf(apps, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := eng.Start(); err != nil {
		t.Fatal(err)
	}
	fc := faults.DefaultConfig()
	fc.Server = faults.Class{MTBF: 2000, MTTR: 180, DetectDelay: 15}
	fc.Switch = faults.Class{MTBF: 8000, MTTR: 360, DetectDelay: 15}
	fc.Link = faults.Class{MTBF: 6000, MTTR: 270, DetectDelay: 7.5}
	fc.Partition = faults.Class{MTBF: 1200, MTTR: 120}
	inj := faults.New(p, fc)
	faults.NewMonitor(p, 0.95, 10).Start(dur)
	inj.Start(dur)
	flash := workload.FlashCrowd{Base: 1, Peak: 10, Start: dur * 0.25, Ramp: dur * 0.05, Hold: dur * 0.3}
	p.DriveDemand(apps[0], flash, p.AppDemand(apps[0]), 30, dur)
	p.Start()

	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p.Eng.RunUntil(dur + 60)
	runtime.ReadMemStats(&after)

	mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20)
	decisions := reg.Counter("causal.decisions").Value()
	t.Logf("run phase: %.2f MB in %d objects, %d decisions, %d faults, %d bus retries",
		mb, after.Mallocs-before.Mallocs, decisions, inj.Faults(), p.Ctrl().Retries)
	if decisions <= causal.DefaultMaxTrees || inj.Faults() == 0 || p.Ctrl().Retries == 0 {
		t.Fatalf("the run did not exercise eviction, churn and retries")
	}
	if mb > elasticRunBudgetMB {
		t.Errorf("run phase allocated %.2f MB, budget %d MB", mb, elasticRunBudgetMB)
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}
