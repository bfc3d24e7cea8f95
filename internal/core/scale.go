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
// Instance k of the build (app k/InstancesPerApp) is VM base+k on
// servers[k%len(servers)] with RIP firstRIP+k, under the app's VIP
// number k%VIPsPerApp. The loader runs in four stages; all but the
// second are sharded spec.Workers wide, and the state is bit-identical
// for any worker count, because every sharded stage writes disjoint
// state in an order fixed by IDs:
//
//  1. plan (parallel, by app range): app names are pure functions of
//     the app index, formatted into disjoint slots. RIPs need no plan:
//     the loader takes all of them from the pool in one range.
//  2. apply (sequential, per app): AddApp, VIP registration (AddVIPOn,
//     DNS, advertisement), demand tables and dirty bits, all of which
//     allocate shared contiguous IDs or pick from shared cursors. Each
//     VIP's handle and home switch are recorded here, and each VIP is
//     queued on its home switch's work list.
//  3. place (parallel): Cluster.PlaceRange writes the VMs, running, by
//     app range and the server lists by server range; then, by app
//     range, each VM's RIP and home VIP handle (vmRIP, vmHome). This is
//     the state the per-instance PlaceVM, Start and bindRIP sequence
//     built, without its OnVMChange calls: no VM had a RIP binding when
//     it started, so they invalidated nothing.
//  4. fabric (parallel, by switch): RIP configuration mutates only the
//     home switch, so workers take whole switches and insert each of
//     the switch's VIPs' RIPs, in stage-2 order, as one tagged range
//     (Switch.AddRIPRange: one VIP lookup and one group allocation per
//     VIP). The worker owning a switch also adds the platform's backend
//     generation bumps for it, one per RIP homed there, as bindRIP does
//     per RIP. The OnReconfig hook is parked during the stage: stage
//     2's AddVIPOn already recorded every VIP owner and dirtied every
//     app, and the closing PropagateFull recomputes all routing anyway.
//     Per-RIP trace events are not emitted on this path (the synthetic
//     build-out is not control-plane activity).
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
	perApp, perVIP := spec.InstancesPerApp, spec.VIPsPerApp

	// Every RIP of the build, in instance order: instance k's is
	// firstRIP+k, as nvms sequential Alloc calls would have returned.
	nvms := spec.NumVMs()
	firstRIP, err := p.VIPRIP.AllocRIPs(nvms)
	if err != nil {
		return fmt.Errorf("core: bulk rip range: %w", err)
	}

	// Stage 1 — plan.
	names := make([]string, spec.Apps)
	shardRange(spec.Apps, workers, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			names[i] = fmt.Sprintf("app-%d", i)
		}
	})

	// Every count the build fills is known from the spec, so reserve
	// final capacity before anything is filled: the VM lists, the demand
	// tables, Propagate's per-app ledgers, the VIP owner table and the
	// network's per-VIP table below (and each VIP's RIP group in stage
	// 4) would otherwise regrow 0→1→2→4→… or with 1.5× headroom on the
	// way to their final lengths, and at paper scale that copying and
	// its garbage dominate the build. The owner table grows by one
	// handle per new VIP.
	firstApp := cluster.AppID(p.Cluster.NumApps())
	endApp := int(firstApp) + spec.Apps
	nvips := spec.Apps * perVIP
	p.Cluster.Reserve(spec.Apps, perApp, (nvms+len(servers)-1)/len(servers))
	p.appSlice = slices.Grow(p.appSlice, endApp-len(p.appSlice))
	p.appDemand = slices.Grow(p.appDemand, endApp-len(p.appDemand))
	p.applied = slices.Grow(p.applied, endApp-len(p.applied))
	p.vipOwner = slices.Grow(p.vipOwner, nvips)
	p.Net.Reserve(nvips)

	// Stage 2 — apply, in app order. VIP v of app i is entry i·perVIP+v
	// of vipH, its handle; its home switch's work list holds the entry
	// number.
	nsw := p.Fabric.NumSwitches()
	vipH := make([]ids.Index, nvips)
	perSwitch := make([][]int32, nsw)
	for s := range perSwitch {
		perSwitch[s] = make([]int32, 0, nvips/nsw+1)
	}
	vipCursor := 0
	for i := 0; i < spec.Apps; i++ {
		app := p.Cluster.AddApp(names[i], spec.Slice)
		p.appSlice = growSlice(p.appSlice, int(app.ID)+1)
		p.appSlice[app.ID] = spec.Slice
		p.appSliceSet.Set(int(app.ID))
		for v := 0; v < perVIP; v++ {
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
			e := i*perVIP + v
			vipH[e] = h
			perSwitch[sw] = append(perSwitch[sw], int32(e))
		}
		p.appDemand = growSlice(p.appDemand, int(app.ID)+1)
		p.appDemand[app.ID] = spec.Demand
		p.demandApps.Set(int(app.ID))
		p.markAppDirty(app.ID)
	}

	// Stage 3 — place, then bind each VM to its RIP and home VIP.
	base, err := p.Cluster.PlaceRange(firstApp, spec.Apps, perApp, servers, spec.Slice, workers)
	if err != nil {
		return fmt.Errorf("core: bulk placement: %w", err)
	}
	end := int(base) + nvms
	p.vmRIP = growSlice(slices.Grow(p.vmRIP, end-len(p.vmRIP)), end)
	p.vmHome = growFill(slices.Grow(p.vmHome, end-len(p.vmHome)), int(base), ids.None)[:end]
	shardRange(spec.Apps, workers, func(lo, hi int) {
		for k := lo * perApp; k < hi*perApp; k++ {
			vm := int(base) + k
			p.vmRIP[vm] = firstRIP + lbswitch.RIP(k)
			p.vmHome[vm] = vipH[k/perApp*perVIP+k%perApp%perVIP]
		}
	})

	// Stage 4 — fabric. Each worker owns whole switches; within one
	// switch the VIPs fill in stage-2 order, so the final per-switch
	// state is independent of how switches map to workers.
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
	var wg sync.WaitGroup
	for w := 0; w < min(workers, nsw); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := range next {
				sw := p.Fabric.Switch(lbswitch.SwitchID(s))
				for _, e := range perSwitch[s] {
					// VIP v of app i takes the app's instances v,
					// v+perVIP, … below perApp.
					i, v := int(e)/perVIP, int(e)%perVIP
					k := i*perApp + v
					n := (perApp - v + perVIP - 1) / perVIP
					vip := p.Fabric.Addr(vipH[e])
					if err := sw.AddRIPRange(vip, firstRIP+lbswitch.RIP(k), int32(base)+int32(k), perVIP, n, 1); err != nil {
						errs[s] = fmt.Errorf("core: bulk vip %s on switch %d: %w", vip, s, err)
						break
					}
					p.backendGen[s] += uint64(n)
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

// shardRange splits [0, n) into at most workers contiguous ranges, runs
// fn on each in its own goroutine and waits for all of them.
func shardRange(n, workers int, fn func(lo, hi int)) {
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for lo := 0; lo < n; lo += chunk {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(lo, min(lo+chunk, n))
		}()
	}
	wg.Wait()
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
