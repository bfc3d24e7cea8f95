package core

// Paper-scale construction (DESIGN.md §13). The interactive onboarding
// path (OnboardApp) spends O(switches) picking a home for every VIP,
// O(pod servers) picking a server for every VM, and one Propagate per
// onboarded app — all fine for experiment-sized platforms, quadratic
// pain at the paper's 300K servers / 300K applications / 6M RIPs. The
// bulk loader here builds the same state with O(1) placement decisions:
// VIPs round-robin over switches (balanced by construction, via
// viprip.Manager.AddVIPOn), VMs round-robin over a flat server cursor,
// RIPs configured under an explicit preferred VIP (the O(1) AddRIP
// path), demand written straight into the dense tables, and exactly one
// full propagation at the end.

import (
	"fmt"
	"runtime"
	"slices"
	"sync"

	"megadc/internal/cluster"
	"megadc/internal/ids"
	"megadc/internal/lbswitch"
)

// ScaleSpec sizes a synthetic platform for the scale harness. All
// counts are exact: Apps applications, each with VIPsPerApp VIPs and
// InstancesPerApp VM instances, over Servers servers.
type ScaleSpec struct {
	Servers         int
	Apps            int
	InstancesPerApp int
	VIPsPerApp      int
	Seed            int64

	// Workers sets the worker count for the sharded stages of the bulk
	// loader (0 = GOMAXPROCS). Construction is bit-identical for any
	// worker count: the plan stage fills disjoint per-app slots with
	// pure functions of the app index, and the fabric stage gives each
	// worker whole switches, whose state is disjoint by construction.
	Workers int

	// Demand is the per-app offered load installed by the bulk loader.
	Demand Demand
	// Slice is the per-instance resource slice.
	Slice cluster.Resources
}

// PaperScaleSpec is the paper's headline build-out: 300K servers, 300K
// elastic applications, 20 instances each — 6M VMs behind 6M RIPs.
func PaperScaleSpec() ScaleSpec { return ScaleSpecFor(300_000) }

// ScaleSpecFor derives a proportional tier of the paper-scale platform
// from its server count (the tier index of the bench scale100k workload,
// TestScaleSmoke10K and TestPaperScale300K): as many apps as servers,
// 20 instances per app, so every server carries ~20 VMs at every tier.
func ScaleSpecFor(servers int) ScaleSpec {
	return ScaleSpec{
		Servers:         servers,
		Apps:            servers,
		InstancesPerApp: 20,
		VIPsPerApp:      1,
		Seed:            1,
		Demand:          Demand{CPU: 1, Mbps: 2},
		Slice:           cluster.Resources{CPU: 0.25, MemMB: 64, NetMbps: 5},
	}
}

// NumVMs returns the total VM (and RIP) count of the spec.
func (s ScaleSpec) NumVMs() int { return s.Apps * s.InstancesPerApp }

// Topology derives the physical build-out: pods of ≤1000 servers,
// unscaled Catalyst-CSM switches sized so the fleet holds the RIP count
// with ≥2× headroom, and an access network whose links stay far below
// saturation under the installed demand.
func (s ScaleSpec) Topology() Topology {
	pods := s.Servers / 1000
	if pods < 4 {
		pods = 4
	}
	limits := lbswitch.CatalystCSM()
	switches := 2 * s.NumVMs() / limits.MaxRIPs
	if min := 2 * s.Apps * s.VIPsPerApp / limits.MaxVIPs; min > switches {
		switches = min
	}
	if switches < 8 {
		switches = 8
	}
	perServer := float64(s.NumVMs()) / float64(s.Servers)
	capacity := cluster.Resources{
		CPU:     2 * perServer * s.Slice.CPU,
		MemMB:   2 * perServer * s.Slice.MemMB,
		NetMbps: 2 * perServer * s.Slice.NetMbps,
	}
	return Topology{
		ISPs:           8,
		LinksPerISP:    4,
		LinkMbps:       float64(s.Apps) * s.Demand.Mbps, // ≤ ~6% utilization per link
		BorderRouters:  8,
		Switches:       switches,
		SwitchLimits:   limits,
		Pods:           pods,
		ServersPerPod:  (s.Servers + pods - 1) / pods,
		ServerCapacity: capacity,
		DNSTTLSeconds:  60,
		VIPPoolBase:    "198.18.0.0",
		VIPPoolSize:    uint32(s.Apps*s.VIPsPerApp + 1024),
		RIPPoolBase:    "10.0.0.0",
		RIPPoolSize:    uint32(s.NumVMs() + 1024),
		Seed:           s.Seed,
		SwitchPods:     (switches + 31) / 32,
	}
}

// BuildScalePlatform constructs a platform at the spec's scale and bulk
// onboards every application. PropagateFullEvery is disabled so steady
// ticks stay incremental; benchmarks call PropagateFull explicitly.
func BuildScalePlatform(spec ScaleSpec) (*Platform, error) {
	cfg := DefaultConfig()
	cfg.VIPsPerApp = spec.VIPsPerApp
	cfg.PropagateFullEvery = -1
	p, err := NewPlatform(spec.Topology(), cfg)
	if err != nil {
		return nil, err
	}
	if err := p.OnboardAppsBulk(spec); err != nil {
		return nil, err
	}
	return p, nil
}

// OnboardAppsBulk registers spec.Apps applications with O(1) placement
// decisions per entity and a single final full propagation. The
// resulting state is structurally the same as spec.Apps OnboardApp
// calls — VIPs homed and exposed, RIPs tagged, demand installed — just
// placed by round-robin instead of pressure scans.
//
// The loader is sharded into three stages (spec.Workers wide,
// bit-identical for any worker count):
//
//  1. plan (parallel): app names are pure functions of the app index,
//     so workers format them into disjoint slots. RIPs need no plan:
//     the loader takes all of them from the pool in one range, and
//     instance k of the build gets the range's first address plus k.
//  2. apply (sequential): app/VIP/VM registration and the dense-table
//     bindings, all of which allocate shared contiguous IDs whose order
//     defines the state.
//  3. fabric (parallel): RIP configuration mutates only the home
//     switch, so workers take whole switches and fill each of the
//     switch's VIPs in stage-2 order with its RIPs in instance order,
//     each inserted with its VM tag (one VIP lookup and one group scan
//     per RIP). The work list holds one entry per VIP, not per RIP, so
//     the garbage it leaves does not grow with the instances. A VIP's group
//     depends only on its own inserts, so the result is what inserting
//     every RIP in stage-2 order would build. The OnReconfig hook is
//     parked during the stage: stage 2's AddVIPOn already recorded
//     every VIP owner and dirtied every app, and the closing
//     PropagateFull recomputes all routing anyway. Per-RIP trace
//     events are not emitted on this path (the synthetic build-out is
//     not control-plane activity).
func (p *Platform) OnboardAppsBulk(spec ScaleSpec) error {
	if spec.Apps <= 0 || spec.InstancesPerApp <= 0 || spec.VIPsPerApp <= 0 {
		return fmt.Errorf("core: scale spec needs apps, instances, and VIPs")
	}
	servers := p.Cluster.ServerIDs()
	if len(servers) == 0 {
		return fmt.Errorf("core: no servers to place on")
	}
	workers := spec.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Every RIP of the build, in instance order: instance k's is
	// firstRIP+k, as nvms sequential Alloc calls would have returned.
	nvms := spec.NumVMs()
	firstRIP, err := p.VIPRIP.AllocRIPs(nvms)
	if err != nil {
		return fmt.Errorf("core: bulk rip range: %w", err)
	}

	// Stage 1 — plan. Shard the pure-function work over contiguous app
	// ranges into disjoint slices.
	names := make([]string, spec.Apps)
	var wg sync.WaitGroup
	chunk := (spec.Apps + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := min(lo+chunk, spec.Apps)
		if lo >= hi {
			break
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			for i := lo; i < hi; i++ {
				names[i] = fmt.Sprintf("app-%d", i)
			}
		}(lo, hi)
	}
	wg.Wait()

	// Every count the build fills is known from the spec, so reserve
	// final capacity before anything is filled: the VM lists, the RIP
	// bindings and the demand tables below (and each VIP's RIP group in
	// stage 3) would otherwise regrow 0→1→2→4→… on the way to their
	// final lengths, and at paper scale that copying and its garbage
	// dominate the build.
	p.Cluster.Reserve(spec.Apps, spec.InstancesPerApp, (nvms+len(servers)-1)/len(servers))
	p.vmRIP = slices.Grow(p.vmRIP, nvms)
	p.vmHome = slices.Grow(p.vmHome, nvms)
	p.appSlice = slices.Grow(p.appSlice, spec.Apps)
	p.appDemand = slices.Grow(p.appDemand, spec.Apps)
	ripsPerVIP := (spec.InstancesPerApp + spec.VIPsPerApp - 1) / spec.VIPsPerApp

	// Stage 2 — apply, in app order. RIP→switch configuration is only
	// recorded into per-switch work lists here, one entry per VIP;
	// stage 3 plays them out. A VIP of an app takes every nth of the
	// app's instances (n = VIPs per app) from instance first on, and an
	// app's instances have consecutive RIPs and VM IDs, so the entry
	// holds the first instance's RIP and VM and stage 3 counts on from
	// them.
	type vipCfg struct {
		vip   lbswitch.VIP
		rip   lbswitch.RIP
		vm    cluster.VMID
		first int // the app's first instance under vip
	}
	nsw := p.Fabric.NumSwitches()
	perSwitch := make([][]vipCfg, nsw)
	for s := range perSwitch {
		perSwitch[s] = make([]vipCfg, 0, spec.Apps*spec.VIPsPerApp/nsw+spec.VIPsPerApp)
	}
	vips := make([]lbswitch.VIP, 0, spec.VIPsPerApp)
	vipSw := make([]lbswitch.SwitchID, 0, spec.VIPsPerApp)
	srvCursor, vipCursor := 0, 0
	for i := 0; i < spec.Apps; i++ {
		app := p.Cluster.AddApp(names[i], spec.Slice)
		p.appSlice = growSlice(p.appSlice, int(app.ID)+1)
		p.appSlice[app.ID] = spec.Slice
		p.appSliceSet.Set(int(app.ID))
		vips, vipSw = vips[:0], vipSw[:0]
		for v := 0; v < spec.VIPsPerApp; v++ {
			sw := lbswitch.SwitchID(vipCursor % nsw)
			vipCursor++
			vip, err := p.VIPRIP.AddVIPOn(app.ID, sw)
			if err != nil {
				return fmt.Errorf("core: bulk app %d vip: %w", i, err)
			}
			h := p.handleOf(vip)
			if err := p.DNS.Register(app.ID, vip, h, 1); err != nil {
				return err
			}
			if err := p.Net.Advertise(h, p.pickAdvertLink(), false); err != nil {
				return err
			}
			vips = append(vips, vip)
			vipSw = append(vipSw, sw)
		}
		for j := 0; j < spec.InstancesPerApp; j++ {
			srv := servers[srvCursor%len(servers)]
			srvCursor++
			vm, err := p.Cluster.PlaceVM(app.ID, srv, spec.Slice)
			if err != nil {
				return fmt.Errorf("core: bulk app %d instance %d: %w", i, j, err)
			}
			if err := p.Cluster.Start(vm.ID); err != nil {
				return err
			}
			rip := firstRIP + lbswitch.RIP(i*spec.InstancesPerApp+j)
			vip := vips[j%len(vips)]
			home := vipSw[j%len(vips)]
			p.bindRIP(rip, vm.ID, vip, home)
			if j < len(vips) {
				perSwitch[home] = append(perSwitch[home], vipCfg{vip: vip, rip: rip, vm: vm.ID, first: j})
			}
		}
		p.appDemand = growSlice(p.appDemand, int(app.ID)+1)
		p.appDemand[app.ID] = spec.Demand
		p.demandApps.Set(int(app.ID))
		p.markAppDirty(app.ID)
	}

	// Stage 3 — fabric. Each worker owns whole switches; within one
	// switch the planned RIPs apply in stage-2 order, so the final
	// per-switch state is independent of how switches map to workers.
	hooks := make([]func(ids.Index, cluster.AppID), nsw)
	for s := 0; s < nsw; s++ {
		sw := p.Fabric.Switch(lbswitch.SwitchID(s))
		hooks[s], sw.OnReconfig = sw.OnReconfig, nil
	}
	errs := make([]error, nsw)
	next := make(chan int, nsw)
	for s := 0; s < nsw; s++ {
		next <- s
	}
	close(next)
	for w := 0; w < min(workers, nsw); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				sw := p.Fabric.Switch(lbswitch.SwitchID(s))
			vips:
				for _, c := range perSwitch[s] {
					if err := sw.ReserveRIPs(c.vip, ripsPerVIP); err != nil {
						errs[s] = err
						break
					}
					for k := 0; c.first+k < spec.InstancesPerApp; k += spec.VIPsPerApp {
						rip := c.rip + lbswitch.RIP(k)
						if err := sw.AddRIPTagged(c.vip, rip, 1, int64(c.vm)+int64(k)); err != nil {
							errs[s] = fmt.Errorf("core: bulk rip %s on switch %d: %w", rip, s, err)
							break vips
						}
					}
				}
			}
		}()
	}
	wg.Wait()
	for s := 0; s < nsw; s++ {
		p.Fabric.Switch(lbswitch.SwitchID(s)).OnReconfig = hooks[s]
		if errs[s] != nil {
			return errs[s]
		}
	}
	p.PropagateFull()
	return nil
}

// SteadyTick is the scale harness's steady-state unit of work: one
// app's demand shifts slightly and Propagate recomputes it
// incrementally. i selects the app and perturbs the demand
// deterministically.
func (p *Platform) SteadyTick(i int) {
	apps := p.Cluster.NumApps()
	if apps == 0 {
		return
	}
	app := cluster.AppID(i % apps)
	d := p.appDemandOf(app)
	d.CPU = 1 + float64(i%7)*0.05
	d.Mbps = 2 + float64(i%5)*0.1
	p.SetAppDemand(app, d)
}
