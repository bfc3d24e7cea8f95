package core

import (
	"fmt"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/ids"
	"megadc/internal/lbswitch"
	"megadc/internal/netmodel"
)

// reuseTestPlatform builds a platform with ten demand-carrying apps of
// three instances and two VIPs each, spread over eight switches and
// eight access links so that one switch or link carries VIPs of fewer
// than half the apps: a hook that propagates on its own then takes the
// incremental path, not the full one. Every incremental Propagate is
// checked against a full recompute (PropagateDebugCheck), with no
// periodic full pass.
func reuseTestPlatform(t *testing.T) (*Platform, []cluster.AppID) {
	t.Helper()
	topo := SmallTopology()
	topo.ISPs = 4
	topo.Switches = 8
	cfg := testConfig()
	cfg.PropagateDebugCheck = true
	cfg.PropagateFullEvery = -1
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	var apps []cluster.AppID
	for i := 0; i < 10; i++ {
		a, err := p.OnboardApp(fmt.Sprintf("reuse-%d", i), cluster.Resources{CPU: 0.5, MemMB: 256, NetMbps: 20},
			3, Demand{CPU: 1 + float64(i)*0.3, Mbps: 20 + float64(i)*7})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a.ID)
	}
	p.PropagateFull()
	return p, apps
}

// checkedPropagate runs fn and turns a divergence panic of the debug
// cross-check into a test failure.
func checkedPropagate(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s: %v", what, r)
		}
	}()
	fn()
}

// TestDemandOnlyReuseAfterStructuralHooks: a demand change recomputes
// its app from the DNS share, reachability and home recorded in the
// ledger, so every hook that changes one of those inputs must mark the
// app structurally dirty. For each hook, the app's inputs must be
// current before it (a demand change does not clear them), and a
// SetAppDemand right after it must leave exactly the state a full
// recompute builds; the hooks that propagate themselves are checked
// by that Propagate too.
func TestDemandOnlyReuseAfterStructuralHooks(t *testing.T) {
	firstVIP := func(p *Platform, app cluster.AppID) (lbswitch.VIP, ids.Index) {
		vip := p.Fabric.VIPsOfApp(app)[0]
		return vip, p.handleOf(vip)
	}
	homeOf := func(p *Platform, app cluster.AppID) lbswitch.SwitchID {
		vip, _ := firstVIP(p, app)
		home, _ := p.Fabric.HomeOf(vip)
		return home
	}
	linkOf := func(p *Platform, app cluster.AppID) netmodel.LinkID {
		_, vi := firstVIP(p, app)
		return p.Net.ActiveLinks(vi)[0]
	}
	cases := []struct {
		name string
		hook func(t *testing.T, p *Platform, app cluster.AppID)
	}{
		{"dns-weight", func(t *testing.T, p *Platform, app cluster.AppID) {
			vip, _ := firstVIP(p, app)
			if err := p.DNS.SetWeight(app, vip, 0.3); err != nil {
				t.Fatal(err)
			}
		}},
		{"advertise", func(t *testing.T, p *Platform, app cluster.AppID) {
			_, vi := firstVIP(p, app)
			for l := 0; l < p.Net.NumLinks(); l++ {
				if !p.Net.Link(netmodel.LinkID(l)).Serving() {
					continue
				}
				if err := p.Net.Advertise(vi, netmodel.LinkID(l), false); err == nil {
					return
				}
			}
			t.Fatal("no link to advertise over")
		}},
		{"withdraw", func(t *testing.T, p *Platform, app cluster.AppID) {
			_, vi := firstVIP(p, app)
			if err := p.Net.Withdraw(vi, linkOf(p, app)); err != nil {
				t.Fatal(err)
			}
		}},
		{"link-fault", func(t *testing.T, p *Platform, app cluster.AppID) {
			if err := p.FaultLink(linkOf(p, app)); err != nil {
				t.Fatal(err)
			}
		}},
		{"link-detect-repair", func(t *testing.T, p *Platform, app cluster.AppID) {
			l := linkOf(p, app)
			if err := p.FaultLink(l); err != nil {
				t.Fatal(err)
			}
			if _, err := p.DetectLink(l); err != nil {
				t.Fatal(err)
			}
			if err := p.RepairLink(l); err != nil {
				t.Fatal(err)
			}
		}},
		{"switch-fault", func(t *testing.T, p *Platform, app cluster.AppID) {
			if err := p.FaultSwitch(homeOf(p, app)); err != nil {
				t.Fatal(err)
			}
		}},
		{"switch-detect-repair", func(t *testing.T, p *Platform, app cluster.AppID) {
			sw := homeOf(p, app)
			if err := p.FaultSwitch(sw); err != nil {
				t.Fatal(err)
			}
			if _, _, err := p.DetectSwitch(sw); err != nil {
				t.Fatal(err)
			}
			if err := p.RepairSwitch(sw); err != nil {
				t.Fatal(err)
			}
		}},
		{"vip-transfer", func(t *testing.T, p *Platform, app cluster.AppID) {
			vip, _ := firstVIP(p, app)
			dst := (homeOf(p, app) + 1) % lbswitch.SwitchID(p.Fabric.NumSwitches())
			if err := p.Fabric.TransferVIP(vip, dst, true); err != nil {
				t.Fatal(err)
			}
		}},
		{"rip-weight", func(t *testing.T, p *Platform, app cluster.AppID) {
			vip, _ := firstVIP(p, app)
			sw := p.Fabric.Switch(homeOf(p, app))
			rips, _, err := sw.Weights(vip)
			if err != nil || len(rips) == 0 {
				t.Fatalf("vip %s has no RIPs: %v", vip, err)
			}
			if err := sw.SetWeight(vip, rips[0], 3); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			p, apps := reuseTestPlatform(t)
			app := apps[2]
			checkedPropagate(t, "demand change before the hook", func() {
				p.SetAppDemand(app, Demand{CPU: 2.2, Mbps: 41})
			})
			if !p.inputsOK.Get(int(app)) {
				t.Fatal("a demand change dropped the app's recorded inputs")
			}
			checkedPropagate(t, "hook", func() { c.hook(t, p, app) })
			checkedPropagate(t, "demand change after the hook", func() {
				p.SetAppDemand(app, Demand{CPU: 1.7, Mbps: 33})
			})
			if err := p.AuditErr(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestStructuralHooksDropRecordedInputs pins the marking itself for
// the hooks that do not propagate on their own: right after each, the
// app is dirty and its recorded inputs are no longer reusable.
func TestStructuralHooksDropRecordedInputs(t *testing.T) {
	p, apps := reuseTestPlatform(t)
	app := apps[1]
	vip := p.Fabric.VIPsOfApp(app)[0]
	vi := p.handleOf(vip)
	home, _ := p.Fabric.HomeOf(vip)
	sw := p.Fabric.Switch(home)
	rips, _, _ := sw.Weights(vip)
	for _, h := range []struct {
		name string
		fn   func() error
	}{
		{"dns-weight", func() error { return p.DNS.SetWeight(app, vip, 0.5) }},
		{"withdraw", func() error { return p.Net.Withdraw(vi, p.Net.ActiveLinks(vi)[0]) }},
		{"rip-weight", func() error { return sw.SetWeight(vip, rips[0], 2) }},
		{"vip-transfer", func() error {
			return p.Fabric.TransferVIP(vip, (home+1)%lbswitch.SwitchID(p.Fabric.NumSwitches()), true)
		}},
	} {
		checkedPropagate(t, h.name, func() { p.SetAppDemand(app, Demand{CPU: 1.5, Mbps: 30}) })
		if !p.inputsOK.Get(int(app)) {
			t.Fatalf("%s: inputs not recorded after a propagate", h.name)
		}
		if err := h.fn(); err != nil {
			t.Fatalf("%s: %v", h.name, err)
		}
		if p.inputsOK.Get(int(app)) || !p.dirtyApps.Get(int(app)) {
			t.Fatalf("%s: app not structurally dirty", h.name)
		}
	}
}

// TestFullPassForeignLedgerVMFallsBack: a RIP under a VIP of one app
// tagged with a VM of another breaks the audit's I1.RIP_TAG_APP, and a
// full pass whose ledger meets such a VM must not write it from a pool
// worker: it rebuilds every VM sequentially instead — homed VMs reset
// to their session base, then every ledger added in ascending app
// order — for any worker count.
func TestFullPassForeignLedgerVMFallsBack(t *testing.T) {
	sess := cluster.Resources{CPU: 0.05, NetMbps: 1.5}
	build := func(workers int) *Platform {
		cfg := DefaultConfig()
		cfg.VIPsPerApp = 2
		cfg.PropagateWorkers = workers
		cfg.PropagateFullEvery = -1
		p, err := NewPlatform(SmallTopology(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(p.Close)
		var apps []cluster.AppID
		for i := 0; i < 2*parallelThreshold; i++ {
			a, err := p.OnboardApp("fb", cluster.Resources{CPU: 0.25, MemMB: 128, NetMbps: 10}, 2,
				Demand{CPU: 0.5 + float64(i%7)*0.31, Mbps: 10 + float64(i%11)*3.7})
			if err != nil {
				t.Fatal(err)
			}
			apps = append(apps, a.ID)
		}
		// App 3's first RIP and app 90's first RIP each name a VM of
		// another app, one later and one earlier in app order.
		for _, pair := range [][2]cluster.AppID{{apps[3], apps[70]}, {apps[90], apps[10]}} {
			_, rip, sw, vip := auditBoundVM(p, pair[0])
			other := p.Cluster.App(pair[1]).VMIDs()[1]
			retagRIP(t, sw, vip, rip, int32(other))
			p.SessionOpened(p.vmHomeOf(other), other, sess)
		}
		if !p.Audit().Has("I1.RIP_TAG_APP") {
			t.Fatal("audit misses I1.RIP_TAG_APP")
		}
		p.PropagateFull()
		if p.fullApp(int32(apps[3])) || p.fullApp(int32(apps[90])) {
			t.Fatal("full pass wrote a VM of another app")
		}
		p.PropagateFull()
		return p
	}
	base := build(1)
	// The sequential order, from the ledgers the pass computed.
	want := make(map[cluster.VMID]cluster.Resources)
	for vm, home := range base.vmHome {
		if home != ids.None && base.Cluster.VM(cluster.VMID(vm)) != nil {
			want[cluster.VMID(vm)] = at(base.sessVM, ids.Index(vm))
		}
	}
	for _, ai := range base.demandApps.AppendMembers(nil) {
		rec := &base.applied[ai]
		for i := range rec.vips {
			for _, e := range rec.vmsOf(i) {
				want[e.vm] = want[e.vm].Add(rec.vips[i].vmRes(e))
			}
		}
	}
	for vm, d := range want {
		if got := base.Cluster.VM(vm).Demand; got != d {
			t.Fatalf("vm %d demand %+v, want %+v from the sequential order", vm, got, d)
		}
	}
	for _, w := range []int{2, 3, 8} {
		if d := base.captureState().diff(build(w).captureState()); d != "" {
			t.Fatalf("workers=%d state diverged from workers=1: %s", w, d)
		}
	}
}
