package core

import (
	"math/rand"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/health"
	"megadc/internal/ids"
	"megadc/internal/lbswitch"
	"megadc/internal/netmodel"
)

// openSession records one open discrete session so the scenario can
// close it later.
type openSession struct {
	vip lbswitch.VIP
	vm  cluster.VMID
	res cluster.Resources
}

// runPropagationScenario drives a fixed chaos-style event sequence —
// demand swings, deploys, removals, exposure flips, forced VIP
// transfers, fault/detect/repair cycles, link flaps, and discrete
// session churn — against a platform built with cfg, and returns the
// platform for state inspection. Everything is seeded, so two calls
// with configs that differ only in propagation strategy must produce
// bit-identical state.
func runPropagationScenario(t *testing.T, cfg Config, nOps int) *Platform {
	t.Helper()
	topo := SmallTopology()
	topo.Seed = 42
	cfg.VIPsPerApp = 2
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	rng := rand.New(rand.NewSource(42))
	var apps []cluster.AppID
	for i := 0; i < 4; i++ {
		a, err := p.OnboardApp("xcheck", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
			3, Demand{CPU: 2, Mbps: 50})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a.ID)
	}
	p.Start()
	var sessions []openSession
	for i := 0; i < nOps; i++ {
		p.Eng.RunFor(15)
		app := apps[rng.Intn(len(apps))]
		switch rng.Intn(14) {
		case 0: // demand spike
			p.SetAppDemand(app, Demand{CPU: rng.Float64() * 30, Mbps: rng.Float64() * 400})
		case 1: // demand drop
			p.SetAppDemand(app, Demand{CPU: rng.Float64(), Mbps: rng.Float64() * 10})
		case 2: // manual deploy
			pods := p.Cluster.PodIDs()
			p.DeployInstance(app, pods[rng.Intn(len(pods))])
		case 3: // manual removal (keep at least one instance)
			if a := p.Cluster.App(app); a != nil && a.NumInstances() > 1 {
				vms := a.VMIDs()
				p.RemoveInstance(vms[rng.Intn(len(vms))])
			}
		case 4: // exposure flip
			if vips := p.DNS.VIPs(app); len(vips) > 0 {
				p.DNS.SetWeight(app, vips[rng.Intn(len(vips))], rng.Float64()*2)
				p.Propagate()
			}
		case 5: // manual forced VIP transfer
			if vips := p.Fabric.VIPsOfApp(app); len(vips) > 0 {
				dst := lbswitch.SwitchID(rng.Intn(topo.Switches))
				p.Fabric.TransferVIP(vips[rng.Intn(len(vips))], dst, true)
				p.Propagate()
			}
		case 6: // silent switch fault, detected a little later
			alive := 0
			for _, sw := range p.Fabric.Switches() {
				if sw.Serving() {
					alive++
				}
			}
			if alive > 2 {
				id := lbswitch.SwitchID(rng.Intn(topo.Switches))
				if p.Fabric.Switch(id).Serving() {
					p.FaultSwitch(id)
					p.Eng.After(10, func() { p.DetectSwitch(id) })
				}
			}
		case 7: // link flap: fault then repair before detection
			alive := 0
			for _, l := range p.Net.Links() {
				if l.Serving() {
					alive++
				}
			}
			if alive > 2 {
				id := netmodel.LinkID(rng.Intn(topo.ISPs * topo.LinksPerISP))
				if p.Net.Link(id).Serving() {
					p.FaultLink(id)
					p.Eng.After(5, func() { p.RepairLink(id) })
				}
			}
		case 8: // server failure with immediate detection
			ids := p.Cluster.ServerIDs()
			serving := 0
			for _, id := range ids {
				if p.Cluster.Server(id).Serving() {
					serving++
				}
			}
			victim := ids[rng.Intn(len(ids))]
			if srv := p.Cluster.Server(victim); srv != nil && srv.Serving() && serving > 2 {
				p.FailServer(victim)
			}
		case 9: // repair everything that has failed
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
			for _, l := range p.Net.Links() {
				if !l.Serving() {
					p.RepairLink(l.ID)
				}
			}
		case 10, 11: // open a discrete session on a random VIP/VM
			vips := p.Fabric.VIPsOfApp(app)
			a := p.Cluster.App(app)
			if len(vips) > 0 && a != nil && a.NumInstances() > 0 {
				vms := a.VMIDs()
				s := openSession{
					vip: vips[rng.Intn(len(vips))],
					vm:  vms[rng.Intn(len(vms))],
					res: cluster.Resources{CPU: rng.Float64(), NetMbps: rng.Float64() * 20},
				}
				p.SessionOpened(p.handleOf(s.vip), s.vm, s.res)
				sessions = append(sessions, s)
			}
		case 12, 13: // close the oldest open session
			if len(sessions) > 0 {
				s := sessions[0]
				sessions = sessions[1:]
				p.SessionClosed(p.handleOf(s.vip), s.vm, s.res)
			}
		}
		if err := p.AuditErr(); err != nil {
			t.Fatalf("invariant after op %d: %v", i, err)
		}
	}
	for _, s := range sessions {
		p.SessionClosed(p.handleOf(s.vip), s.vm, s.res)
	}
	p.Eng.RunFor(120)
	if err := p.AuditErr(); err != nil {
		t.Fatalf("audit after settling: %v", err)
	}
	return p
}

// TestIncrementalMatchesFullRecompute runs the same seeded scenario
// twice — once under the default incremental propagation and once with
// a full recompute forced on every Propagate call — and requires the
// final link loads, per-VIP traffic, switch loads, and VM demands to be
// bit-for-bit identical. Any drift in the incremental bookkeeping would
// compound over the scenario's hundreds of Propagate calls and show up
// here.
func TestIncrementalMatchesFullRecompute(t *testing.T) {
	const nOps = 150
	incCfg := DefaultConfig()
	incCfg.AuditEvery = 10 // periodic conservation-law audit alongside the crosscheck
	inc := runPropagationScenario(t, incCfg, nOps)

	fullCfg := DefaultConfig()
	fullCfg.PropagateFullEvery = 1
	fullCfg.AuditEvery = 10
	full := runPropagationScenario(t, fullCfg, nOps)

	if d := inc.captureState().diff(full.captureState()); d != "" {
		t.Fatalf("incremental state diverged from full-recompute state: %s", d)
	}
	// The observables that drive control decisions, compared explicitly.
	li, lf := inc.Net.LinkLoads(), full.Net.LinkLoads()
	if len(li) != len(lf) {
		t.Fatalf("link count %d != %d", len(li), len(lf))
	}
	for i := range li {
		if li[i] != lf[i] {
			t.Errorf("link %d load %v != %v", i, li[i], lf[i])
		}
	}
	si, sf := inc.Fabric.Utilizations(), full.Fabric.Utilizations()
	for i := range si {
		if si[i] != sf[i] {
			t.Errorf("switch %d utilization %v != %v", i, si[i], sf[i])
		}
	}
	if a, b := inc.TotalSatisfaction(), full.TotalSatisfaction(); a != b {
		t.Errorf("total satisfaction %v != %v", a, b)
	}
}

// TestPropagateDebugCheck runs the scenario with the debug cross-check
// enabled, which re-derives the full state after every incremental
// Propagate and panics on any bitwise difference — a much finer sieve
// than the end-state comparison above.
func TestPropagateDebugCheck(t *testing.T) {
	cfg := DefaultConfig()
	cfg.PropagateDebugCheck = true
	cfg.PropagateFullEvery = -1 // pure incremental: maximize checked ticks
	runPropagationScenario(t, cfg, 60)
}

// TestPropagateWorkerCountInvariance verifies the deterministic
// parallel fan-out contract: a full recompute with 1, 2, 3 and 8
// workers leaves bit-identical state. The platform carries enough apps
// to clear parallelThreshold, so the multi-worker builds genuinely fan
// out, and the state covers what a full pass's workers write: apps of
// one to four instances, apps without demand (one of them had demand
// applied before), a session overlay on VMs and VIPs, and a homed VIP
// whose routes were all withdrawn after its demand was applied, so its
// VMs hold no ledger entry and must fall to their session base.
func TestPropagateWorkerCountInvariance(t *testing.T) {
	sess := cluster.Resources{CPU: 0.05, NetMbps: 1.5}
	build := func(workers int) *Platform {
		topo := SmallTopology()
		cfg := DefaultConfig()
		cfg.VIPsPerApp = 2
		cfg.PropagateWorkers = workers
		cfg.PropagateFullEvery = -1
		p, err := NewPlatform(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		var apps []cluster.AppID
		for i := 0; i < 2*parallelThreshold; i++ {
			d := Demand{CPU: 0.5 + float64(i%7)*0.31, Mbps: 10 + float64(i%11)*3.7}
			if i%9 == 4 {
				d = Demand{}
			}
			a, err := p.OnboardApp("wk", cluster.Resources{CPU: 0.25, MemMB: 128, NetMbps: 10}, 1+i%4, d)
			if err != nil {
				t.Fatal(err)
			}
			apps = append(apps, a.ID)
		}
		p.PropagateFull()
		// Sessions on the first VM of every fifth app.
		for i := 0; i < len(apps); i += 5 {
			vm := p.Cluster.App(apps[i]).VMIDs()[0]
			p.SessionOpened(p.vmHomeOf(vm), vm, sess)
		}
		// Withdraw every route of app 2's VIP that homes its first VM.
		vm := p.Cluster.App(apps[2]).VMIDs()[0]
		vi := p.vmHomeOf(vm)
		for _, l := range p.Net.ActiveLinks(vi) {
			if err := p.Net.Withdraw(vi, l); err != nil {
				t.Fatal(err)
			}
		}
		p.SessionOpened(vi, vm, sess)
		if d := p.Cluster.VM(vm).Demand; d == sess {
			t.Fatalf("vm %d carries only its session before the withdrawal propagates", vm)
		}
		p.SetAppDemand(apps[7], Demand{})
		p.PropagateFull()
		if d := p.Cluster.VM(vm).Demand; d != sess {
			t.Fatalf("vm %d under an unreachable VIP has demand %+v, want its session base %+v", vm, d, sess)
		}
		return p
	}
	base := build(1)
	for _, w := range []int{2, 3, 8} {
		p := build(w)
		if d := base.captureState().diff(p.captureState()); d != "" {
			t.Fatalf("workers=%d state diverged from workers=1: %s", w, d)
		}
	}
}

// TestFullPassClearsUnappliedVIPs pins the clear step of a full pass,
// which writes only the previously active VIPs no ledger re-applies.
// Between two full passes app 1 loses all its demand, and so does app
// 2, one of whose VIPs keeps a session. The second pass sees both only
// through the demand table; it must leave app 1's VIPs idle, app 2's
// session VIP active with its session load alone, and the whole state
// bit for bit what the incremental path builds when SetAppDemand
// applies the same changes to the same platform.
func TestFullPassClearsUnappliedVIPs(t *testing.T) {
	sess := cluster.Resources{CPU: 0.05, NetMbps: 1.5}
	build := func(viaFull bool) (p *Platform, apps []cluster.AppID, vi ids.Index) {
		cfg := DefaultConfig()
		cfg.VIPsPerApp = 2
		cfg.PropagateFullEvery = -1
		p, err := NewPlatform(SmallTopology(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		for i := 0; i < 4; i++ {
			a, err := p.OnboardApp("clear", cluster.Resources{CPU: 0.5, MemMB: 128, NetMbps: 20}, 2,
				Demand{CPU: 1 + float64(i), Mbps: 20 + 5*float64(i)})
			if err != nil {
				t.Fatal(err)
			}
			apps = append(apps, a.ID)
		}
		p.PropagateFull()
		vm := p.Cluster.App(apps[2]).VMIDs()[0]
		vi = p.vmHomeOf(vm)
		p.SessionOpened(vi, vm, sess)
		for _, app := range apps[1:3] {
			if !p.activeVIPs.Get(int(p.handleOf(p.Fabric.VIPsOfApp(app)[0]))) {
				t.Fatalf("app %d's VIP idle before its demand went", app)
			}
			if viaFull {
				p.demandApps.Clear(int(app)) // as SetAppDemand, without its Propagate
				p.markDemandDirty(app)
			} else {
				p.SetAppDemand(app, Demand{})
			}
		}
		if viaFull {
			p.PropagateFull()
		}
		return p, apps, vi
	}
	p, apps, vi := build(true)
	inc, _, _ := build(false)
	if d := p.captureState().diff(inc.captureState()); d != "" {
		t.Fatalf("full pass after the demand went diverged from the incremental path: %s", d)
	}
	for _, app := range apps[1:3] {
		for _, vip := range p.Fabric.VIPsOfApp(app) {
			h, want := p.handleOf(vip), 0.0
			if h == vi {
				want = sess.NetMbps
			}
			if got := p.Net.VIPTraffic(h); got != want || p.Fabric.Load(h) != want {
				t.Errorf("app %d VIP %d traffic %v, switch load %v, want %v", app, h, got, p.Fabric.Load(h), want)
			}
			if p.activeVIPs.Get(int(h)) != (want > 0) {
				t.Errorf("app %d VIP %d active = %v, want %v", app, h, !(want > 0), want > 0)
			}
		}
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}

// TestPropagateDirtyWorkerCountInvariance pins the same contract on the
// incremental path: a dirty-set recompute wide enough to fan out must
// leave bit-identical state for any worker count. The dirty set is kept
// under half the demand-carrying apps so Propagate genuinely takes the
// dirty path (asserted via the full-recompute tick counter staying put).
func TestPropagateDirtyWorkerCountInvariance(t *testing.T) {
	const apps = 4 * parallelThreshold
	build := func(workers int) *Platform {
		topo := SmallTopology()
		cfg := DefaultConfig()
		cfg.VIPsPerApp = 2
		cfg.PropagateWorkers = workers
		cfg.PropagateFullEvery = -1 // never fall back to the full path
		p, err := NewPlatform(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		for i := 0; i < apps; i++ {
			d := Demand{CPU: 0.4 + float64(i%5)*0.27, Mbps: 8 + float64(i%13)*2.9}
			if _, err := p.OnboardApp("dw", cluster.Resources{CPU: 0.2, MemMB: 128, NetMbps: 8}, 1, d); err != nil {
				t.Fatal(err)
			}
		}
		// Dirty a contiguous block of apps larger than parallelThreshold
		// but smaller than half the demand set, then propagate once.
		for i := 0; i < apps/3; i++ {
			p.markAppDirty(cluster.AppID(i))
		}
		ticks := p.propagateTicks
		p.Propagate()
		if p.propagateTicks != ticks+1 {
			t.Fatalf("propagateTicks advanced by %d, want 1", p.propagateTicks-ticks)
		}
		return p
	}
	base := build(1)
	for _, w := range []int{2, 8} {
		p := build(w)
		if d := base.captureState().diff(p.captureState()); d != "" {
			t.Fatalf("workers=%d state diverged from workers=1: %s", w, d)
		}
	}
}

// TestSessionOverlayCanonicalUnderChurn pins the session overlay's
// bit-exactness: after every step of a seeded mix of session opens and
// closes, demand changes, deploys and removals, forced VIP transfers and
// server fault/detect/repair, the platform's propagated state must equal
// a full recompute's bit for bit. Session updates rewrite the same
// ledger+session sums Propagate writes, so a full recompute, which
// rebuilds every ledger and re-adds every overlay, changes nothing.
func TestSessionOverlayCanonicalUnderChurn(t *testing.T) {
	topo := SmallTopology()
	topo.Seed = 11
	cfg := DefaultConfig()
	cfg.VIPsPerApp = 2
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	var apps []cluster.AppID
	for i := 0; i < 4; i++ {
		a, err := p.OnboardApp("overlay", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
			3, Demand{CPU: 2, Mbps: 50})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a.ID)
	}
	type session struct {
		vi  ids.Index
		vm  cluster.VMID
		res cluster.Resources
	}
	var open []session
	var before, after propState
	opened, closed := 0, 0
	rng := rand.New(rand.NewSource(11))
	for step := 0; step < 2000; step++ {
		app := apps[rng.Intn(len(apps))]
		switch rng.Intn(12) {
		case 0, 1, 2, 3: // open a session on a random VIP and VM of app
			vips := p.Fabric.VIPsOfApp(app)
			a := p.Cluster.App(app)
			if len(vips) > 0 && a != nil && a.NumInstances() > 0 {
				vms := a.VMIDs()
				s := session{
					vi:  p.handleOf(vips[rng.Intn(len(vips))]),
					vm:  vms[rng.Intn(len(vms))],
					res: cluster.Resources{CPU: rng.Float64(), NetMbps: rng.Float64() * 20},
				}
				p.SessionOpened(s.vi, s.vm, s.res)
				open = append(open, s)
				opened++
			}
		case 4, 5, 6: // close a random open session
			if len(open) > 0 {
				i := rng.Intn(len(open))
				s := open[i]
				open = append(open[:i], open[i+1:]...)
				p.SessionClosed(s.vi, s.vm, s.res)
				closed++
			}
		case 7:
			p.SetAppDemand(app, Demand{CPU: rng.Float64() * 20, Mbps: rng.Float64() * 300})
		case 8: // remove an instance (keeping one) or deploy one, as a manager would
			if a := p.Cluster.App(app); a != nil && a.NumInstances() > 1 && rng.Intn(2) == 0 {
				vms := a.VMIDs()
				p.RemoveInstance(vms[rng.Intn(len(vms))])
			} else {
				pods := p.Cluster.PodIDs()
				p.DeployInstance(app, pods[rng.Intn(len(pods))])
			}
			p.Propagate()
		case 9: // forced VIP transfer
			if vips := p.Fabric.VIPsOfApp(app); len(vips) > 0 {
				dst := lbswitch.SwitchID(rng.Intn(topo.Switches))
				p.Fabric.TransferVIP(vips[rng.Intn(len(vips))], dst, true)
				p.Propagate()
			}
		default: // advance a random server through fault, detect, repair
			srvs := p.Cluster.ServerIDs()
			id := srvs[rng.Intn(len(srvs))]
			switch p.Cluster.Server(id).Health {
			case health.Healthy:
				p.FaultServer(id)
			case health.FailedUndetected:
				p.DetectServer(id)
			default:
				p.RepairServer(id)
			}
		}
		before.capture(p)
		p.PropagateFull()
		after.capture(p)
		if d := before.diff(&after); d != "" {
			t.Fatalf("step %d: state differs from a full recompute: %s", step, d)
		}
	}
	t.Logf("%d sessions opened, %d closed", opened, closed)
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}
