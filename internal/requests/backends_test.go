package requests

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/ctrlplane"
	"megadc/internal/energy"
	"megadc/internal/faults"
	"megadc/internal/lbswitch"
	"megadc/internal/metrics"
	"megadc/internal/workload"
)

// fullScanCPU is the uncached oracle for core.BackendScan.SwitchCPU:
// the same walk, written against public accessors in the same VIP and
// RIP order, so a correct memo matches it bit for bit.
func fullScanCPU(p *core.Platform, id lbswitch.SwitchID) float64 {
	sw := p.Fabric.Switch(id)
	if sw == nil || !sw.Serving() {
		return 0
	}
	var cpu float64
	for _, vip := range sw.VIPs() {
		_, tags, _, err := sw.AppendWeightsTagged(vip, nil, nil, nil)
		if err != nil {
			continue
		}
		for _, tag := range tags {
			vm := p.Cluster.VM(cluster.VMID(tag))
			if vm == nil || vm.State != cluster.VMRunning {
				continue
			}
			if srv := p.Cluster.Server(vm.Server); srv == nil || !srv.Serving() {
				continue
			}
			cpu += vm.Slice.CPU
		}
	}
	return cpu
}

// TestBackendCPUCacheMatchesFullScan runs the elastic feature mix —
// every manager, serialized reconfiguration, the lossy bus, server,
// switch and link churn with pod partitions, a flash crowd, energy
// consolidation (whose direct MigrateVM calls reach the VM-change hook)
// and short operator server flaps repaired before detection — with the
// auditor on every Propagate. Every quarter second it forces a capacity
// refresh and requires every attached queue's µ to equal, bit for bit,
// the one an uncached full scan gives: a mutation that moves a switch's
// backend capacity without invalidating its memo fails here.
func TestBackendCPUCacheMatchesFullScan(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 101} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			const dur = 400.0
			topo := core.SmallTopology()
			topo.ISPs, topo.Seed = 4, seed
			reg := metrics.NewRegistry()
			cfg := core.DefaultConfig()
			cfg.SerializeReconfig = true
			cfg.AuditEvery = 1
			cfg.Ctrl.Enable = true
			cfg.Ctrl.Default = ctrlplane.LinkConfig{Delay: 0.5, Jitter: 0.2, LossProb: 0.02}
			cfg.Ctrl.Registry = reg
			p, err := core.NewPlatform(topo, cfg)
			if err != nil {
				t.Fatal(err)
			}
			const apps = 32
			weights := workload.ZipfWeights(apps, 0.9)
			totalCPU := 0.55 * topo.ServerCapacity.CPU * float64(topo.Pods*topo.ServersPerPod)
			totalMbps := 0.55 * min(topo.LinkMbps*float64(topo.ISPs*topo.LinksPerISP),
				topo.SwitchLimits.ThroughputMbps*float64(topo.Switches))
			ids := make([]cluster.AppID, apps)
			for i := range ids {
				d := core.Demand{CPU: totalCPU * weights[i], Mbps: totalMbps * weights[i]}
				a, err := p.OnboardApp(fmt.Sprintf("app-%02d", i), slice(), 3, d)
				if err != nil {
					t.Fatal(err)
				}
				ids[i] = a.ID
			}

			rcfg := DefaultConfig()
			rcfg.Profile = workload.Constant(50)
			rcfg.StopAt = dur
			rcfg.Registry = reg
			e, err := New(p, rcfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.AddAppsZipf(ids, 0.9); err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}

			fc := faults.DefaultConfig()
			fc.Server = faults.Class{MTBF: 1000, MTTR: 60, DetectDelay: 15}
			fc.Switch = faults.Class{MTBF: 1500, MTTR: 120, DetectDelay: 15}
			fc.Link = faults.Class{MTBF: 3000, MTTR: 90, DetectDelay: 7.5}
			fc.Partition = faults.Class{MTBF: 600, MTTR: 60}
			inj := faults.New(p, fc)
			inj.Start(dur)
			cons := energy.NewConsolidator(p)
			cons.Attach(energy.NewMeter(p, energy.DefaultPowerModel()), 30, 30)
			flash := workload.FlashCrowd{Base: 1, Peak: 10, Start: dur * 0.25, Ramp: dur * 0.05, Hold: dur * 0.3}
			p.DriveDemand(ids[0], flash, p.AppDemand(ids[0]), 30, dur)
			p.Start()

			// Operator flaps: a healthy server goes dark and comes back
			// before any detection, so its VMs stop and resume counting
			// without being removed.
			rng := rand.New(rand.NewSource(seed))
			var flaps int
			p.Eng.Every(20, 40, func() bool {
				srvs := p.Cluster.ServerIDs()
				id := srvs[rng.Intn(len(srvs))]
				if srv := p.Cluster.Server(id); srv.Serving() && srv.NumVMs() > 0 {
					if err := p.FaultServer(id); err != nil {
						t.Error(err)
					}
					flaps++
					p.Eng.After(5, func() {
						if err := p.RepairServer(id); err != nil {
							t.Error(err)
						}
					})
				}
				return p.Eng.Now() < dur
			})

			var checks, mismatches int
			p.Eng.Every(0.125, 0.25, func() bool {
				e.RefreshCapacity()
				for _, id := range e.qOrder {
					q := e.queues[id]
					want := fullScanCPU(p, id) / rcfg.CPUPerRequest
					checks++
					if math.Float64bits(q.mu) != math.Float64bits(want) && mismatches < 5 {
						mismatches++
						t.Errorf("t=%.3f switch %d: µ %v after refresh, full scan gives %v",
							p.Eng.Now(), id, q.mu, want)
					}
				}
				return p.Eng.Now() < dur+60
			})
			p.Eng.RunUntil(dur + 60)

			if err := p.AuditErr(); err != nil {
				t.Fatal(err)
			}
			st := e.Stats()
			if st.Served == 0 || e.AttachedQueues() < topo.Switches/2 || checks == 0 {
				t.Fatalf("mix too thin: served %d, %d queues attached, %d checks", st.Served, e.AttachedQueues(), checks)
			}
			if inj.ServerFaults == 0 || flaps == 0 || inj.PodPartitions == 0 {
				t.Fatalf("churn too thin: %d server faults, %d flaps, %d partitions", inj.ServerFaults, flaps, inj.PodPartitions)
			}
			var resizes int64
			for _, pm := range p.PodManagers() {
				resizes += pm.Resizes
			}
			if resizes == 0 || p.Global.VIPTransfers == 0 {
				t.Fatalf("control too thin: %d resizes, %d VIP transfers", resizes, p.Global.VIPTransfers)
			}
		})
	}
}

// TestExactLatencyTracksResize pins µ on a visible output, in the
// style of an exact-latency service test: with deterministic service and
// one request in flight at a time there is no queueing, so each
// request's latency is exactly 1/µ. Growing a backend VM changes µ at
// the next refresh and not before. Sizes are powers of two, so every
// latency and sum below is exact in binary floating point.
func TestExactLatencyTracksResize(t *testing.T) {
	topo := core.SmallTopology()
	cfg := core.DefaultConfig()
	cfg.VIPsPerApp = 1 // one VIP: every request lands on one switch
	p, err := core.NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.OnboardApp("app", slice(), 2, core.Demand{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	rcfg := DefaultConfig()
	// The test schedules every arrival itself; the profile's first draw
	// lies far beyond the run.
	rcfg.Profile = workload.Constant(1e-9)
	rcfg.Service = ServiceDeterministic
	rcfg.CPUPerRequest = 1.0 / 64 // two 1-core VMs: µ = 128 req/s
	rcfg.RefreshEvery = 1
	rcfg.Registry = reg
	e, err := New(p, rcfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddApp(a.ID, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}

	lat := reg.Histogram("requests.latency.all")
	prevSum := 0.0
	// One arrival at every t+0.5 for t = 0..9; service ends within
	// milliseconds, long before the next arrival or the next refresh.
	// Each want is the latency the request at that second must see.
	want := []float64{1.0 / 128, 1.0 / 128, 1.0 / 128, 1.0 / 128, 1.0 / 128,
		1.0 / 128, // arrives at 5.5, after the resize but before the refresh at 6
		1.0 / 256, 1.0 / 256, 1.0 / 256, 1.0 / 256}
	for i, w := range want {
		at := float64(i) + 0.5
		p.Eng.At(at, e.arrive)
		p.Eng.At(at+0.25, func() {
			if n := lat.Count(); n != uint64(i+1) {
				t.Fatalf("t=%v: %d requests served, want %d", at, n, i+1)
			}
			got := lat.Sum() - prevSum
			prevSum = lat.Sum()
			if got != w {
				t.Errorf("request at t=%v: latency %v, want 1/µ = %v", at, got, w)
			}
		})
	}
	// Grow one backend from 1 to 3 cores: 4 cores in all, µ = 256.
	vm := p.Cluster.App(a.ID).VMIDs()[0]
	p.Eng.At(5.25, func() {
		if err := p.Cluster.ResizeVM(vm, cluster.Resources{CPU: 3, MemMB: 1024, NetMbps: 100}); err != nil {
			t.Fatal(err)
		}
	})
	p.Eng.RunUntil(float64(len(want)) + 1)
	if st := e.Stats(); st.Generated != int64(len(want)) || st.Served != int64(len(want)) {
		t.Fatalf("generated %d, served %d; want %d each", st.Generated, st.Served, len(want))
	}
}
