package core

import (
	"slices"
	"strings"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/ids"
	"megadc/internal/lbswitch"
)

// auditTestPlatform builds a small platform with one demand-carrying
// app, ready for targeted state corruption.
func auditTestPlatform(t *testing.T) (*Platform, cluster.AppID) {
	t.Helper()
	topo := SmallTopology()
	cfg := DefaultConfig()
	cfg.VIPsPerApp = 2
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.OnboardApp("aud", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
		3, Demand{CPU: 2, Mbps: 50})
	if err != nil {
		t.Fatal(err)
	}
	return p, a.ID
}

// auditBoundVM returns the app's first VM, its RIP, and the switch and
// VIP its RIP entry sits under.
func auditBoundVM(p *Platform, app cluster.AppID) (cluster.VMID, lbswitch.RIP, *lbswitch.Switch, lbswitch.VIP) {
	vm := p.Cluster.App(app).VMIDs()[0]
	rip, _ := p.RIPForVM(vm)
	vip, _ := p.vipOfVM(vm)
	home, _ := p.Fabric.HomeOf(vip)
	return vm, rip, p.Fabric.Switch(home), vip
}

// retagRIP rewrites the tag of rip's entry under vip behind the
// platform's back, by removing the entry and inserting it again with
// the same weight.
func retagRIP(t *testing.T, sw *lbswitch.Switch, vip lbswitch.VIP, rip lbswitch.RIP, tag int32) {
	t.Helper()
	rips, ws, err := sw.Weights(vip)
	if err != nil {
		t.Fatal(err)
	}
	i := slices.Index(rips, rip)
	if i < 0 {
		t.Fatalf("rip %s not under %s", rip, vip)
	}
	if _, err := sw.RemoveRIP(vip, rip); err != nil {
		t.Fatal(err)
	}
	if err := sw.AddRIPTagged(vip, rip, ws[i], tag); err != nil {
		t.Fatal(err)
	}
}

func TestAuditCleanPlatform(t *testing.T) {
	p, _ := auditTestPlatform(t)
	if rep := p.Audit(); !rep.OK() {
		t.Fatalf("clean platform audits dirty:\n%s", rep)
	}
}

// TestAuditDetectsCorruption white-box corrupts each audited layer and
// checks the auditor reports the matching invariant ID.
func TestAuditDetectsCorruption(t *testing.T) {
	t.Run("I1.FABRIC", func(t *testing.T) {
		p, app := auditTestPlatform(t)
		_, _, sw, _ := auditBoundVM(p, app)
		sw.Limits.MaxRIPs = 0 // the switch now holds more RIPs than it may
		if rep := p.Audit(); !rep.Has("I1.FABRIC") {
			t.Fatalf("missing I1.FABRIC, got:\n%s", rep)
		}
	})
	t.Run("I1.SWITCH_POD_PARTITION", func(t *testing.T) {
		topo := SmallTopology()
		topo.SwitchPods = 2
		p, err := NewPlatform(topo, DefaultConfig())
		if err != nil {
			t.Fatal(err)
		}
		if rep := p.Audit(); !rep.OK() {
			t.Fatalf("clean switch-pod platform audits dirty:\n%s", rep)
		}
		p.Fabric.AddSwitch(topo.SwitchLimits) // a switch no switch pod owns
		if rep := p.Audit(); !rep.Has("I1.SWITCH_POD_PARTITION") {
			t.Fatalf("missing I1.SWITCH_POD_PARTITION, got:\n%s", rep)
		}
	})
	t.Run("I1.RIP_VM_BIJECTION", func(t *testing.T) {
		t.Run("shared RIP", func(t *testing.T) {
			p, app := auditTestPlatform(t)
			vms := p.Cluster.App(app).VMIDs()
			p.vmRIP[vms[1]] = p.vmRIP[vms[0]] // two VMs now hold one RIP
			if rep := p.Audit(); !rep.Has("I1.RIP_VM_BIJECTION") {
				t.Fatalf("missing I1.RIP_VM_BIJECTION, got:\n%s", rep)
			}
		})
		t.Run("tag disagrees", func(t *testing.T) {
			p, app := auditTestPlatform(t)
			_, rip, sw, vip := auditBoundVM(p, app)
			other := p.Cluster.App(app).VMIDs()[1]
			retagRIP(t, sw, vip, rip, int32(other))
			if rep := p.Audit(); !rep.Has("I1.RIP_VM_BIJECTION") {
				t.Fatalf("missing I1.RIP_VM_BIJECTION, got:\n%s", rep)
			}
		})
	})
	t.Run("I1.RIP_LIVE_VM", func(t *testing.T) {
		p, app := auditTestPlatform(t)
		vm, _, _, _ := auditBoundVM(p, app)
		if err := p.Cluster.RemoveVM(vm); err != nil { // behind the bindings' back
			t.Fatal(err)
		}
		if rep := p.Audit(); !rep.Has("I1.RIP_LIVE_VM") {
			t.Fatalf("missing I1.RIP_LIVE_VM, got:\n%s", rep)
		}
	})
	t.Run("I1.RIP_HOME_KNOWN", func(t *testing.T) {
		p, app := auditTestPlatform(t)
		vm, _, _, _ := auditBoundVM(p, app)
		p.vmHome[vm] = ids.None
		if rep := p.Audit(); !rep.Has("I1.RIP_HOME_KNOWN") {
			t.Fatalf("missing I1.RIP_HOME_KNOWN, got:\n%s", rep)
		}
	})
	t.Run("I1.VM_HAS_RIP", func(t *testing.T) {
		p, app := auditTestPlatform(t)
		vm, _, _, _ := auditBoundVM(p, app)
		p.vmRIP[vm], p.vmHome[vm] = 0, ids.None
		if rep := p.Audit(); !rep.Has("I1.VM_HAS_RIP") {
			t.Fatalf("missing I1.VM_HAS_RIP, got:\n%s", rep)
		}
	})
	t.Run("I1.NO_ORPHAN_RIP", func(t *testing.T) {
		p, app := auditTestPlatform(t)
		_, rip, sw, vip := auditBoundVM(p, app)
		retagRIP(t, sw, vip, rip, -1)
		if rep := p.Audit(); !rep.Has("I1.NO_ORPHAN_RIP") {
			t.Fatalf("missing I1.NO_ORPHAN_RIP, got:\n%s", rep)
		}
	})
	t.Run("I1.RIP_TAG_APP", func(t *testing.T) {
		p, app := auditTestPlatform(t)
		other, err := p.OnboardApp("other", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
			1, Demand{CPU: 1, Mbps: 10})
		if err != nil {
			t.Fatal(err)
		}
		_, rip, sw, vip := auditBoundVM(p, app)
		retagRIP(t, sw, vip, rip, int32(p.Cluster.App(other.ID).VMIDs()[0]))
		if rep := p.Audit(); !rep.Has("I1.RIP_TAG_APP") {
			t.Fatalf("missing I1.RIP_TAG_APP, got:\n%s", rep)
		}
	})
	t.Run("I1.RIP_HOME_MATCH", func(t *testing.T) {
		p, app := auditTestPlatform(t)
		vm, _, _, vip := auditBoundVM(p, app)
		for _, other := range p.Fabric.VIPsOfApp(app) {
			if other != vip {
				p.vmHome[vm] = p.handleOf(other)
				break
			}
		}
		if rep := p.Audit(); !rep.Has("I1.RIP_HOME_MATCH") {
			t.Fatalf("missing I1.RIP_HOME_MATCH, got:\n%s", rep)
		}
	})
	t.Run("I1.EXPOSED_HOMED", func(t *testing.T) {
		p, app := auditTestPlatform(t)
		vip := p.Fabric.VIPsOfApp(app)[0]
		if err := p.Fabric.DropVIP(vip, true); err != nil {
			t.Fatal(err)
		}
		if rep := p.Audit(); !rep.Has("I1.EXPOSED_HOMED") {
			t.Fatalf("missing I1.EXPOSED_HOMED, got:\n%s", rep)
		}
	})
	t.Run("I2.GEN_MONOTONE", func(t *testing.T) {
		p, app := auditTestPlatform(t)
		p.auditLastGen = growSlice(p.auditLastGen, int(app)+1)
		p.auditLastGen[app] = p.DNS.Gen(app) + 5
		if rep := p.Audit(); !rep.Has("I2.GEN_MONOTONE") {
			t.Fatalf("missing I2.GEN_MONOTONE, got:\n%s", rep)
		}
	})
	t.Run("I3.SNAPSHOT_IFF_FAULTED", func(t *testing.T) {
		p, _ := auditTestPlatform(t)
		// A snapshot for a healthy server means fault bookkeeping leaked
		// (or a repair forgot to consume it — the double-count case).
		p.srvFaults.snap[p.Cluster.ServerIDs()[0]] = cluster.Resources{CPU: 8}
		if rep := p.Audit(); !rep.Has("I3.SNAPSHOT_IFF_FAULTED") {
			t.Fatalf("missing I3.SNAPSHOT_IFF_FAULTED, got:\n%s", rep)
		}
	})
	t.Run("I3.BACKEND_CPU_CURRENT", func(t *testing.T) {
		p, app := auditTestPlatform(t)
		vm := p.Cluster.VM(p.Cluster.App(app).VMIDs()[0])
		vip, _ := p.vipOfVM(vm.ID)
		home, _ := p.Fabric.HomeOf(vip)
		bs := p.NewBackendScan()
		before := bs.SwitchCPU(home)
		if rep := p.Audit(); rep.Has("I3.BACKEND_CPU_CURRENT") {
			t.Fatalf("fresh memo flagged:\n%s", rep)
		}
		// Grow the backend behind the VM-change hook's back: the memo is
		// now stale while both generations still look current.
		vm.Slice.CPU += 1
		if got := bs.SwitchCPU(home); got != before {
			t.Fatalf("setup: memo recomputed (%v → %v) without a bump", before, got)
		}
		if rep := p.Audit(); !rep.Has("I3.BACKEND_CPU_CURRENT") {
			t.Fatalf("missing I3.BACKEND_CPU_CURRENT, got:\n%s", rep)
		}
	})
	t.Run("I4.VIP_TRAFFIC_SUM", func(t *testing.T) {
		p, app := auditTestPlatform(t)
		vip := p.Fabric.VIPsOfApp(app)[0]
		vi := p.handleOf(vip)
		ledgerVIP(t, p, vi).traffic++ // ledger no longer matches the network
		if rep := p.Audit(); !rep.Has("I4.VIP_TRAFFIC_SUM") {
			t.Fatalf("missing I4.VIP_TRAFFIC_SUM, got:\n%s", rep)
		}
	})
	t.Run("I4.VM_DEMAND_SUM", func(t *testing.T) {
		p, _ := auditTestPlatform(t)
		for vmi, rip := range p.vmRIP {
			if rip == 0 {
				continue
			}
			if vm := p.Cluster.VM(cluster.VMID(vmi)); vm != nil {
				vm.Demand.CPU += 0.5
				break
			}
		}
		if rep := p.Audit(); !rep.Has("I4.VM_DEMAND_SUM") {
			t.Fatalf("missing I4.VM_DEMAND_SUM, got:\n%s", rep)
		}
	})
	t.Run("I5.LINK_OVERLOAD", func(t *testing.T) {
		p, _ := auditTestPlatform(t)
		p.Cfg.AuditOverloadUtil = 1e-9 // everything carrying load is "overloaded"
		if rep := p.Audit(); !rep.Has("I5.LINK_OVERLOAD") {
			t.Fatalf("missing I5.LINK_OVERLOAD, got:\n%s", rep)
		}
	})
	t.Run("I6.REQ_COUNTERS", func(t *testing.T) {
		p, _ := auditTestPlatform(t)
		sw := p.Fabric.Switch(1)
		sw.NoteReqEnqueued()
		if rep := p.Audit(); !rep.OK() {
			t.Fatalf("a queued request is not a violation, got:\n%s", rep)
		}
		sw.Req.Served++ // served without leaving the queue
		if rep := p.Audit(); !rep.Has("I6.REQ_COUNTERS") {
			t.Fatalf("missing I6.REQ_COUNTERS, got:\n%s", rep)
		}
	})
}

// TestAuditHookAccumulates checks the Propagate-time hook: violations
// present while auditing is enabled surface through AuditViolations and
// AuditErr, with the repro seed stamped in.
func TestAuditHookAccumulates(t *testing.T) {
	topo := SmallTopology()
	topo.Seed = 77
	cfg := DefaultConfig()
	cfg.VIPsPerApp = 2
	cfg.AuditEvery = 1
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.OnboardApp("aud", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
		2, Demand{CPU: 1, Mbps: 20})
	if err != nil {
		t.Fatal(err)
	}
	if len(p.AuditViolations()) != 0 {
		t.Fatalf("clean onboarding accumulated violations: %v", p.AuditViolations())
	}
	vip := p.Fabric.VIPsOfApp(a.ID)[0]
	vi := p.handleOf(vip)
	ledgerVIP(t, p, vi).traffic += 3
	p.Propagate() // no dirty apps: the corruption survives and the hook sees it
	vs := p.AuditViolations()
	if len(vs) == 0 {
		t.Fatal("hook did not accumulate the violation")
	}
	if vs[0].Seed != 77 {
		t.Fatalf("violation seed = %d, want the topology seed 77", vs[0].Seed)
	}
	if err := p.AuditErr(); err == nil {
		t.Fatal("AuditErr = nil with accumulated violations")
	} else if !strings.Contains(err.Error(), "I4.VIP_TRAFFIC_SUM") {
		t.Fatalf("AuditErr misses the invariant ID: %v", err)
	}
}

// TestDrainDropMidwayKeepsVIPUnexposed is the I1.EXPOSED_HOMED
// regression surfaced by the auditor: when a VIP is dropped from the
// fabric mid-drain (the DetectSwitch no-healthy-target path), the drain
// protocol's finish step used to blindly restore the VIP's DNS weight,
// exposing a dead address. The weight must stay zero until a rehome
// reconciles exposure.
func TestDrainDropMidwayKeepsVIPUnexposed(t *testing.T) {
	topo := SmallTopology()
	cfg := DefaultConfig()
	cfg.VIPsPerApp = 2
	cfg.AuditEvery = 1
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.OnboardApp("svc", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
		3, Demand{CPU: 2, Mbps: 50})
	if err != nil {
		t.Fatal(err)
	}
	vip := p.Fabric.VIPsOfApp(a.ID)[0]
	home, ok := p.Fabric.HomeOf(vip)
	if !ok {
		t.Fatal("vip has no home")
	}
	var dst lbswitch.SwitchID
	for _, sw := range p.Fabric.Switches() {
		if sw.ID != home {
			dst = sw.ID
			break
		}
	}
	p.Global.startDrainAndTransfer(vip, dst)
	// Mid-drain — after the weight went to zero, before the transfer
	// attempt fires — the detect path drops the VIP from the fabric
	// outright, exactly what DetectSwitch does when no healthy switch
	// can take it.
	p.Eng.After(p.Cfg.DNSUpdateLatency+1, func() {
		if err := p.Fabric.DropVIP(vip, true); err != nil {
			t.Errorf("drop: %v", err)
		}
		if err := p.DNS.SetWeight(a.ID, vip, 0); err != nil {
			t.Errorf("zero weight: %v", err)
		}
		p.Propagate()
	})
	p.Eng.RunFor(p.Cfg.DNSUpdateLatency + p.DNS.TTL() + 4*p.Cfg.DrainMargin + 10)

	if _, homed := p.Fabric.HomeOf(vip); homed {
		t.Fatal("setup: vip should still be unhomed")
	}
	vips, ws, err := p.DNS.Weights(a.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vips {
		if v == vip && ws[i] != 0 {
			t.Fatalf("drain finish restored weight %v for the dropped VIP %s (I1.EXPOSED_HOMED)", ws[i], vip)
		}
	}
	if err := p.AuditErr(); err != nil {
		t.Fatalf("audit (I1.EXPOSED_HOMED regression): %v", err)
	}
}

// ledgerVIP returns the VIP's entry in its owner's Propagate ledger, the
// record the I4 sums are checked against.
func ledgerVIP(t *testing.T, p *Platform, vi ids.Index) *appliedVIP {
	t.Helper()
	rec := &p.applied[p.vipOwner[vi]]
	for i := range rec.vips {
		if rec.vips[i].vip == vi {
			return &rec.vips[i]
		}
	}
	t.Fatalf("vip %d has no ledger entry", vi)
	return nil
}
