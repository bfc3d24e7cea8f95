package core

import (
	"math"
	"testing"

	"megadc/internal/lbswitch"
)

// TestUntaggedEntryBacksNoVM pins the single RIP → VM path: a switch
// entry without a tag backs no VM, even when its RIP is the one a bound
// VM holds under another VIP. Propagate routes the entry's share of the
// load to no VM, the backend scan counts no CPU for it, and the audit
// flags it as I1.NO_ORPHAN_RIP.
func TestUntaggedEntryBacksNoVM(t *testing.T) {
	p, app := auditTestPlatform(t)
	vm, rip, _, vip := auditBoundVM(p, app)
	var other lbswitch.VIP
	for _, v := range p.Fabric.VIPsOfApp(app) {
		if v != vip {
			other = v
		}
	}
	home, _ := p.Fabric.HomeOf(other)
	sw := p.Fabric.Switch(home)
	if sw.NumRIPsOf(other) == 0 {
		t.Fatalf("setup: VIP %s has no RIPs, so it carries no load", other)
	}
	bs := p.NewBackendScan()
	cpuBefore := bs.SwitchCPU(home)
	demandBefore := p.Cluster.VM(vm).Demand
	gen := sw.BackendGen()

	if err := sw.AddRIP(other, rip, 1); err != nil {
		t.Fatal(err)
	}
	p.Propagate()

	if sw.BackendGen() == gen {
		t.Fatal("setup: adding the entry did not move the switch's backend generation")
	}
	if got := bs.SwitchCPU(home); got != cpuBefore {
		t.Errorf("backend CPU behind switch %d = %v with the untagged entry, want %v", home, got, cpuBefore)
	}
	if got := p.Cluster.VM(vm).Demand; !sameBits(got, demandBefore) {
		t.Errorf("vm %d demand = %v, want %v: the untagged entry's share reached it", vm, got, demandBefore)
	}
	var served float64
	for _, id := range p.Cluster.App(app).VMIDs() {
		served += p.Cluster.VM(id).Demand.CPU
	}
	if want := p.appDemandOf(app).CPU; served > want-1e-9 || math.IsNaN(served) {
		t.Errorf("app VMs carry %v of %v CPU demand; the untagged entry's share must reach no VM", served, want)
	}
	if rep := p.Audit(); !rep.Has("I1.NO_ORPHAN_RIP") {
		t.Fatalf("missing I1.NO_ORPHAN_RIP, got:\n%s", rep)
	}
}
