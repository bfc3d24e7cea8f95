package core_test

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/ipv4"
	"megadc/internal/lbswitch"
	"megadc/internal/metrics"
	"megadc/internal/requests"
	"megadc/internal/viprip"
	"megadc/internal/workload"
)

// padHandles assigns fabric handles to addrs, in order, before any real
// VIP is placed: each address is placed and dropped again with the
// switch's reconfiguration hook detached and its counter restored, so
// only the fabric's handle table remembers it.
func padHandles(t *testing.T, p *core.Platform, addrs []lbswitch.VIP) {
	t.Helper()
	sw := p.Fabric.Switch(0)
	hook, reconfigs := sw.OnReconfig, sw.Reconfigs
	sw.OnReconfig = nil
	for _, vip := range addrs {
		if err := p.Fabric.PlaceVIP(vip, 999, sw.ID); err != nil {
			t.Fatal(err)
		}
		if err := p.Fabric.DropVIP(vip, false); err != nil {
			t.Fatal(err)
		}
	}
	sw.OnReconfig, sw.Reconfigs = hook, reconfigs
}

// runOutcome is every output TestInterningOrderInvariance compares, bit
// for bit, keyed by what the outside world can name.
type runOutcome struct {
	vmDemand     []cluster.Resources // by VMID
	vipTraffic   map[lbswitch.VIP]uint64
	vipLoad      map[lbswitch.VIP]uint64
	linkLoads    []uint64
	swThroughput []uint64
	satisfaction float64
	audit        string
	reqStats     requests.Stats
	latency      []uint64 // quantiles of requests.latency.all
}

// TestInterningOrderInvariance pins that VIP handle assignment is an
// invisible implementation detail. The padded run first hands out
// thousands of fabric handles in reverse lexical address order —
// including every address the VIP pool will allocate, so the real VIPs
// reuse handles that run against address order. No observable output
// of the seeded run may change: VM demand, per-VIP traffic and switch
// load, every link load and switch throughput, satisfaction, the audit
// report, and the counters and latency quantiles of a request engine
// run. Outputs must follow addresses, never handle order (DESIGN.md §22).
func TestInterningOrderInvariance(t *testing.T) {
	run := func(pad bool) runOutcome {
		topo := core.SmallTopology()
		topo.Seed = 7
		cfg := core.DefaultConfig()
		cfg.VIPsPerApp = 2
		p, err := core.NewPlatform(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		if pad {
			pool, err := viprip.NewIPPool(topo.VIPPoolBase, topo.VIPPoolSize)
			if err != nil {
				t.Fatal(err)
			}
			var vips []lbswitch.VIP
			for i := 0; i < 3000; i++ {
				addr, err := pool.Alloc()
				if err != nil {
					t.Fatal(err)
				}
				vips = append(vips, addr, ipv4.MustParse("192.0.2.0")+lbswitch.VIP(i))
			}
			slices.SortFunc(vips, lbswitch.VIP.Compare)
			slices.Reverse(vips)
			padHandles(t, p, vips)
		}
		var apps []cluster.AppID
		for i := 0; i < 12; i++ {
			a, err := p.OnboardApp(fmt.Sprintf("iv-%d", i),
				cluster.Resources{CPU: 0.5, MemMB: 256, NetMbps: 20}, 2,
				core.Demand{CPU: 1 + float64(i)*0.37, Mbps: 15 + float64(i)*2.1})
			if err != nil {
				t.Fatal(err)
			}
			apps = append(apps, a.ID)
		}
		// Churn: demand swings, a deploy, a removal, session overlay,
		// and a switch fault/repair cycle.
		for i, app := range apps {
			p.SetAppDemand(app, core.Demand{CPU: 2 + float64(i)*0.11, Mbps: 25 + float64(i)*1.3})
		}
		if _, err := p.DeployInstance(apps[3], p.PodManagers()[1].PodID()); err != nil {
			t.Fatal(err)
		}
		vms := p.Cluster.App(apps[5]).VMIDs()
		if err := p.RemoveInstance(vms[0]); err != nil {
			t.Fatal(err)
		}
		vip := p.Fabric.VIPsOfApp(apps[2])[0]
		vi, _ := p.Fabric.Handle(vip)
		vm := p.Cluster.App(apps[2]).VMIDs()[0]
		p.SessionOpened(vi, vm, cluster.Resources{CPU: 0.2, NetMbps: 3})
		if err := p.FaultSwitch(0); err != nil {
			t.Fatal(err)
		}
		if _, _, err := p.DetectSwitch(0); err != nil {
			t.Fatal(err)
		}
		if err := p.RepairSwitch(0); err != nil {
			t.Fatal(err)
		}
		p.Propagate()

		if pad {
			// The premise: real VIPs hold handles in reverse address order.
			var real []lbswitch.VIP
			for _, app := range apps {
				real = append(real, p.Fabric.VIPsOfApp(app)...)
			}
			slices.SortFunc(real, lbswitch.VIP.Compare)
			for i := 1; i < len(real); i++ {
				a, _ := p.Fabric.Handle(real[i-1])
				b, _ := p.Fabric.Handle(real[i])
				if a <= b {
					t.Fatalf("padding left %s (handle %d) before %s (handle %d)", real[i-1], a, real[i], b)
				}
			}
		}

		var out runOutcome
		for _, id := range p.Cluster.VMIDs() {
			out.vmDemand = append(out.vmDemand, p.Cluster.VM(id).Demand)
		}
		out.vipTraffic = make(map[lbswitch.VIP]uint64)
		out.vipLoad = make(map[lbswitch.VIP]uint64)
		for _, app := range apps {
			for _, vip := range p.Fabric.VIPsOfApp(app) {
				h, _ := p.Fabric.Handle(vip)
				out.vipTraffic[vip] = math.Float64bits(p.Net.VIPTraffic(h))
				out.vipLoad[vip] = math.Float64bits(p.Fabric.Load(h))
			}
		}
		for _, l := range p.Net.Links() {
			out.linkLoads = append(out.linkLoads, math.Float64bits(l.LoadMbps()))
		}
		for _, sw := range p.Fabric.Switches() {
			out.swThroughput = append(out.swThroughput, math.Float64bits(sw.ThroughputMbps()))
		}
		out.satisfaction = p.TotalSatisfaction()
		out.audit = p.Audit().String()

		// A short request run on top: arrivals resolve to handles and
		// queue at the handles' home switches.
		reg := metrics.NewRegistry()
		rcfg := requests.DefaultConfig()
		rcfg.Profile = workload.Constant(150)
		rcfg.Registry = reg
		rcfg.StopAt = p.Eng.Now() + 30
		e, err := requests.New(p, rcfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AddAppsZipf(apps, 1.0); err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		p.Eng.RunUntil(rcfg.StopAt + 30)
		out.reqStats = e.Stats()
		all := reg.Histogram("requests.latency.all")
		for _, q := range []float64{0.5, 0.9, 0.99, 1} {
			out.latency = append(out.latency, math.Float64bits(all.Quantile(q)))
		}
		if out.reqStats.Served == 0 {
			t.Fatal("request run served nothing")
		}
		return out
	}
	clean, padded := run(false), run(true)
	if !slices.Equal(clean.vmDemand, padded.vmDemand) {
		t.Errorf("VM demand diverged:\n%v\n%v", clean.vmDemand, padded.vmDemand)
	}
	for vip, v := range clean.vipTraffic {
		if padded.vipTraffic[vip] != v || padded.vipLoad[vip] != clean.vipLoad[vip] {
			t.Errorf("VIP %s traffic/load %x/%x != %x/%x", vip, v, clean.vipLoad[vip],
				padded.vipTraffic[vip], padded.vipLoad[vip])
		}
	}
	if len(clean.vipTraffic) != len(padded.vipTraffic) {
		t.Errorf("VIP count %d != %d", len(clean.vipTraffic), len(padded.vipTraffic))
	}
	if !slices.Equal(clean.linkLoads, padded.linkLoads) {
		t.Errorf("link loads diverged: %x != %x", clean.linkLoads, padded.linkLoads)
	}
	if !slices.Equal(clean.swThroughput, padded.swThroughput) {
		t.Errorf("switch throughput diverged: %x != %x", clean.swThroughput, padded.swThroughput)
	}
	if clean.satisfaction != padded.satisfaction {
		t.Errorf("satisfaction %v != %v", clean.satisfaction, padded.satisfaction)
	}
	if clean.audit != padded.audit {
		t.Errorf("audit reports diverged:\n%s\n----\n%s", clean.audit, padded.audit)
	}
	if clean.reqStats != padded.reqStats {
		t.Errorf("request stats diverged: %+v != %+v", clean.reqStats, padded.reqStats)
	}
	if !slices.Equal(clean.latency, padded.latency) {
		t.Errorf("latency quantiles diverged: %x != %x", clean.latency, padded.latency)
	}
}
