package core

// Invariant auditor (DESIGN.md §9). Platform.Audit walks every substrate
// and checks the cross-layer conservation laws the paper's architecture
// implies. Each law has a stable invariant ID cited by regression tests:
//
//	I1.* VIP/RIP bidirectional consistency (viprip ↔ lbswitch ↔ cluster)
//	I2.* DNS share sums and generation monotonicity (dnsctl)
//	I3.* capacity accounting, fault-snapshot discipline (cluster), the
//	     memoized per-switch backend CPU and the knob-F skip memos (core)
//	I4.* ledger+session demand conservation (core, sessions)
//	I5.* link/switch load decomposition and limits (netmodel, lbswitch)
//	I6.* request-counter conservation per switch (lbswitch, requests)
//
// Violations are structured audit.Violation records, never panics; the
// Propagate hook (Config.AuditEvery) accumulates them and AuditErr gates
// end-of-run success on an empty set.

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"megadc/internal/audit"
	"megadc/internal/cluster"
	"megadc/internal/health"
	"megadc/internal/ids"
	"megadc/internal/lbswitch"
	"megadc/internal/trace"
)

// maxAuditViolations bounds what the periodic hook stores; a broken run
// repeats the same violations every audited tick.
const maxAuditViolations = 64

// Audit runs one full invariant walk and returns its report. It is
// cheap relative to a full recompute but still O(platform); use
// Config.AuditEvery to bound the overhead in long runs.
func (p *Platform) Audit() *audit.Report {
	rep := audit.NewReport(p.seed, p.propagateTicks)
	p.auditVIPRIP(rep)
	p.auditDNS(rep)
	p.auditCapacity(rep)
	p.auditBackendCPU(rep)
	p.auditWeightSkips(rep)
	p.auditConservation(rep)
	p.auditNetwork(rep)
	p.auditRequests(rep)
	p.lastAuditCount = len(rep.Violations)
	// Flight-recorder integration: attach the per-entity event timeline
	// to each violation before recording the audit event itself, so the
	// timeline ends at the state the auditor observed.
	rep.AttachTimelines(p.Cfg.Trace)
	p.Cfg.Trace.Record(trace.EvAudit, float64(len(rep.Violations)), float64(p.propagateTicks))
	return rep
}

// AuditViolations returns the violations accumulated by the periodic
// audit hook since the platform was built.
func (p *Platform) AuditViolations() []audit.Violation {
	return slices.Clone(p.auditViolations)
}

// AuditErr runs one final audit walk and returns an error when it — or
// any earlier periodic audit — found violations. The cmd binaries and
// the experiment harness use it as the end-of-run gate.
func (p *Platform) AuditErr() error {
	if err := p.Audit().Err(); err != nil {
		return err
	}
	if n := len(p.auditViolations); n > 0 {
		return fmt.Errorf("audit: %d violation(s) accumulated during the run (first: %s)",
			int64(n)+p.auditDropped, p.auditViolations[0])
	}
	return nil
}

// maybeAudit is the Propagate hook, called when Config.AuditEvery is
// positive: it audits when the tick matches AuditEvery (every call at 1)
// and accumulates any violations, capped at maxAuditViolations.
func (p *Platform) maybeAudit() {
	if p.propagateTicks%int64(p.Cfg.AuditEvery) != 0 {
		return
	}
	rep := p.Audit()
	for _, v := range rep.Violations {
		if len(p.auditViolations) >= maxAuditViolations {
			p.auditDropped++
			continue
		}
		p.auditViolations = append(p.auditViolations, v)
	}
}

// auditRequests checks I6: every switch's request counters conserve —
// each enqueued request was served or is still queued, and the depth
// stays within [0, high-water] (lbswitch.Switch.CheckReqInvariants).
// Switches with no request engine attached hold zero counters.
func (p *Platform) auditRequests(rep *audit.Report) {
	for i := 0; i < p.Fabric.NumSwitches(); i++ {
		if err := p.Fabric.Switch(lbswitch.SwitchID(i)).CheckReqInvariants(); err != nil {
			rep.Addf("lbswitch", "I6.REQ_COUNTERS",
				"enqueued == served + depth, 0 <= depth <= high-water", err.Error(), "switch %d", i)
		}
	}
}

// auditVIPRIP checks I1: the fabric's tables and the switch-pod
// partition are consistent, the VM-indexed RIP bindings hold each RIP
// once and only for live VMs, every switch RIP entry is tagged with the
// bound VM whose RIP it is and sits under that VM's home VIP, and every
// VIP DNS exposes is homed on a switch.
func (p *Platform) auditVIPRIP(rep *audit.Report) {
	if err := p.Fabric.CheckInvariants(); err != nil {
		rep.Add("lbswitch", "I1.FABRIC", "consistent switch tables", err.Error(), "")
	}
	if p.SwitchHier != nil {
		if err := p.SwitchHier.CheckInvariants(); err != nil {
			rep.Add("viprip", "I1.SWITCH_POD_PARTITION", "every switch in exactly one switch pod", err.Error(), "")
		}
	}
	// Bound VMs in RIP order: reports sort by RIP in lexical address
	// order, and two VMs holding one RIP land next to each other.
	var bound []cluster.VMID
	for vm, rip := range p.vmRIP {
		if rip != 0 {
			bound = append(bound, cluster.VMID(vm))
		}
	}
	slices.SortFunc(bound, func(a, b cluster.VMID) int {
		return cmp.Or(p.vmRIP[a].Compare(p.vmRIP[b]), cmp.Compare(a, b))
	})
	for i, vm := range bound {
		rip := p.vmRIP[vm]
		if i > 0 && p.vmRIP[bound[i-1]] == rip {
			rep.Addf("viprip", "I1.RIP_VM_BIJECTION",
				"every RIP held by one VM", fmt.Sprintf("vm %d and vm %d", bound[i-1], vm),
				"rip %s", rip)
		}
		if p.Cluster.VM(vm) == nil {
			rep.Addf("viprip", "I1.RIP_LIVE_VM",
				"every bound RIP backs a live VM", "VM missing from cluster",
				"rip %s -> vm %d", rip, vm)
		}
		if p.vmHome[vm] == ids.None {
			rep.Addf("viprip", "I1.RIP_HOME_KNOWN",
				"every bound RIP has a home VIP", "no home-VIP entry",
				"rip %s", rip)
		}
	}
	// Every VM placed through the platform serves through a RIP.
	for _, vmID := range p.Cluster.VMIDs() {
		if _, ok := p.RIPForVM(vmID); !ok {
			rep.Addf("viprip", "I1.VM_HAS_RIP",
				"every placed VM has a RIP", "no RIP configured",
				"vm %d", vmID)
		}
	}
	// Every RIP a switch load-balances to is tagged with the bound VM
	// holding it, a VM of the VIP's own app (a full Propagate's workers
	// write each app's VMs from its ledger alone), and configured under
	// that VM's home VIP (no orphan RIPs receiving traffic).
	var rips []lbswitch.RIP
	var tags []int32
	var ws []float64
	for _, sw := range p.Fabric.Switches() {
		for i, vip := range sw.VIPs() {
			owner := sw.GroupAt(i).App()
			var err error
			rips, tags, ws, err = sw.AppendWeightsTagged(vip, rips[:0], tags[:0], ws[:0])
			if err != nil {
				continue
			}
			for j, rip := range rips {
				vm := vmOfTag(tags[j])
				held, ok := p.RIPForVM(vm)
				if !ok {
					rep.Addf("viprip", "I1.NO_ORPHAN_RIP",
						"every switch-configured RIP is tagged with a bound VM", fmt.Sprintf("tag %d", tags[j]),
						"switch %d vip %s rip %s", sw.ID, vip, rip)
					continue
				}
				if held != rip {
					rep.Addf("viprip", "I1.RIP_VM_BIJECTION",
						fmt.Sprintf("vmRIP[%d] == %s", vm, rip), held.String(),
						"switch %d vip %s", sw.ID, vip)
				}
				if v := p.Cluster.VM(vm); v != nil && v.App != owner {
					rep.Addf("viprip", "I1.RIP_TAG_APP",
						fmt.Sprintf("rip %s tagged with a VM of app %d", rip, owner),
						fmt.Sprintf("vm %d of app %d", vm, v.App), "switch %d vip %s", sw.ID, vip)
				}
				if hi := p.vmHome[vm]; hi != ids.None {
					if home := p.Fabric.Addr(hi); home != vip {
						rep.Addf("viprip", "I1.RIP_HOME_MATCH",
							fmt.Sprintf("rip %s configured under its home VIP %s", rip, home),
							vip.String(), "switch %d", sw.ID)
					}
				}
			}
		}
	}
	// Exposed VIPs must be homed — clients resolving to an unhomed VIP
	// reach a dead address.
	for _, app := range p.DNS.Apps() {
		vips, weights, err := p.DNS.Weights(app)
		if err != nil {
			continue
		}
		for i, vip := range vips {
			if weights[i] <= 0 {
				continue
			}
			if _, ok := p.Fabric.HomeOf(vip); !ok {
				rep.Addf("viprip", "I1.EXPOSED_HOMED",
					"every DNS-exposed VIP is homed on a switch", "no fabric home",
					"app %d vip %s", app, vip)
			}
		}
	}
}

// auditDNS checks I2: per-app expected shares sum to 1 (or are all zero
// when nothing is exposed), weights are non-negative, and the record
// generation never moves backwards.
func (p *Platform) auditDNS(rep *audit.Report) {
	for _, app := range p.DNS.Apps() {
		_, weights, err := p.DNS.Weights(app)
		if err != nil {
			continue
		}
		var total float64
		for i, w := range weights {
			if w < 0 {
				rep.Addf("dnsctl", "I2.WEIGHT_NONNEG",
					"weight >= 0", fmt.Sprintf("%v", w), "app %d vip #%d", app, i)
			}
			total += w
		}
		_, shares, err := p.DNS.ExpectedShares(app)
		if err == nil {
			var sum float64
			for _, s := range shares {
				sum += s
			}
			if total > 0 {
				if d := sum - 1; d > 1e-9 || d < -1e-9 {
					rep.Addf("dnsctl", "I2.SHARE_SUM",
						"shares sum to 1", fmt.Sprintf("%v", sum), "app %d", app)
				}
			} else if sum != 0 {
				rep.Addf("dnsctl", "I2.SHARE_SUM",
					"all-zero shares for an unexposed app", fmt.Sprintf("%v", sum),
					"app %d", app)
			}
		}
		gen := p.DNS.Gen(app)
		p.auditLastGen = growSlice(p.auditLastGen, int(app)+1)
		if last := p.auditLastGen[app]; gen < last {
			rep.Addf("dnsctl", "I2.GEN_MONOTONE",
				fmt.Sprintf("generation >= %d", last), fmt.Sprintf("%d", gen),
				"app %d", app)
		}
		p.auditLastGen[app] = gen
	}
}

// auditCapacity checks I3: cluster accounting (server used == Σ slices
// ≤ capacity), pod used ≤ pod capacity, and the fault-snapshot
// discipline — a component is non-healthy iff a pre-failure snapshot
// exists, undetected faults leave capacity untouched (so repair restores
// exactly, with no double-count), and detected components hold zero
// capacity until repaired.
func (p *Platform) auditCapacity(rep *audit.Report) {
	if err := p.Cluster.CheckInvariants(); err != nil {
		rep.Add("cluster", "I3.CLUSTER", "consistent cluster accounting", err.Error(), "")
	}
	for _, pod := range p.Cluster.PodIDs() {
		used, capacity := p.Cluster.PodUsed(pod), p.Cluster.PodCapacity(pod)
		if !fitsWithSlack(used, capacity) {
			rep.Addf("cluster", "I3.POD_CAPACITY",
				fmt.Sprintf("pod used ≤ capacity %v", capacity), used.String(),
				"pod %d", pod)
		}
	}
	p.srvFaults.audit(rep)
	p.swFaults.audit(rep)
	p.linkFaults.audit(rep)
}

// audit checks I3's fault-snapshot discipline over one failure domain.
func (d *faultDomain[ID, C]) audit(rep *audit.Report) {
	var zero C
	for i := 0; i < d.n(); i++ {
		id := ID(i)
		h, c := d.get(id)
		snap, hasSnap := d.snap[id]
		switch {
		case (*h != health.Healthy) != hasSnap:
			rep.Addf(d.layer, "I3.SNAPSHOT_IFF_FAULTED",
				"snapshot present iff "+d.kind+" non-healthy",
				fmt.Sprintf("health=%v snapshot=%v", *h, hasSnap), "%s %d", d.kind, id)
		case *h == health.FailedUndetected && *c != snap:
			rep.Addf(d.layer, "I3.SNAPSHOT_EXACT",
				fmt.Sprintf("undetected fault keeps %s "+d.verb, d.unit, snap),
				fmt.Sprintf(d.verb, *c), "%s %d", d.kind, id)
		case h.Detected() && *c != zero:
			rep.Addf(d.layer, "I3.DETECTED_ZEROED",
				"detected "+d.kind+" holds zero "+d.unit,
				fmt.Sprintf(d.verb, *c), "%s %d", d.kind, id)
		}
	}
}

// auditBackendCPU checks I3.BACKEND_CPU_CURRENT: every memoized switch
// backend CPU whose generations are still current equals a fresh full
// scan, bit for bit. A mismatch means some mutation moved a switch's
// backend capacity without bumping either generation, so the request
// engine would serve at a stale µ.
func (p *Platform) auditBackendCPU(rep *audit.Report) {
	bs := p.NewBackendScan()
	for id := range p.backendCPU {
		e := &p.backendCPU[id]
		sw := p.Fabric.Switch(lbswitch.SwitchID(id))
		if !e.current(sw, p.backendGen[id]) {
			continue
		}
		if fresh := bs.scan(sw); math.Float64bits(fresh) != math.Float64bits(e.cpu) {
			rep.Addf("core", "I3.BACKEND_CPU_CURRENT",
				fmt.Sprintf("memoized backend CPU == full scan %v", fresh),
				fmt.Sprintf("%v", e.cpu), "switch %d", id)
		}
	}
}

// auditWeightSkips checks I3.WEIGHT_NOOP_CURRENT: every knob-F
// candidate a pod manager would skip — its last evaluation found nothing
// to do and its weight key is still current — still finds nothing to do
// when desiredWeights runs in full. A violation means some change
// reached an input of desiredWeights without moving a generation in the
// key, so the pod manager would sit out a redistribution it owes.
func (p *Platform) auditWeightSkips(rep *audit.Report) {
	for _, pm := range p.pods {
		for i, c := range pm.candidates {
			if m := pm.memos[i]; !m.noop || m.key != p.weightKeyOf(c.sw) {
				continue
			}
			if _, ok := pm.desiredWeights(c.sw, c.vip); ok {
				rep.Addf("core", "I3.WEIGHT_NOOP_CURRENT",
					"a skipped knob-F candidate needs no redistribution", "desiredWeights would act",
					"pod %d vip %s on switch %d", pm.pod, c.vip, c.sw.ID)
			}
		}
	}
}

// auditConservation checks I4: every observable equals its canonical
// ledger+session sum, bit for bit — per-VIP network traffic, per-VIP
// switch load, and per-VM demand. Session overlays are non-negative.
// (The per-driver session-outcome conservation lives in
// sessions.Driver.Audit, which sees the outcome counters.)
func (p *Platform) auditConservation(rep *audit.Report) {
	vis := make([]ids.Index, 0, len(p.vipOwner))
	for vi, owner := range p.vipOwner {
		if owner >= 0 {
			vis = append(vis, ids.Index(vi))
		}
	}
	p.sortByAddr(vis)
	for _, vi := range vis {
		vip := p.Fabric.Addr(vi)
		sess := at(p.sessVIP, vi)
		if sess < 0 {
			rep.Addf("core", "I4.SESS_NONNEG",
				"session overlay >= 0", fmt.Sprintf("%v", sess), "vip %s", vip)
		}
		traffic, swLoad := p.appliedVIPLoad(vi)
		want := traffic + sess
		got := p.Net.VIPTraffic(vi)
		if math.Float64bits(got) != math.Float64bits(want) {
			rep.Addf("core", "I4.VIP_TRAFFIC_SUM",
				fmt.Sprintf("traffic == fluid+session == %v", want),
				fmt.Sprintf("%v", got), "vip %s", vip)
		}
		if home, ok := p.Fabric.Home(vi); ok {
			wantSw := swLoad + sess
			gotSw := p.Fabric.Load(vi)
			if math.Float64bits(gotSw) != math.Float64bits(wantSw) {
				rep.Addf("core", "I4.SWITCH_LOAD_SUM",
					fmt.Sprintf("switch load == fluid+session == %v", wantSw),
					fmt.Sprintf("%v", gotSw), "vip %s on switch %d", vip, home)
			}
		}
	}
	// Every VM's fluid demand in one pass over the ledgers, summed in
	// apply order (ascending app, then ledger order), as applyRec adds it.
	fluid := make([]cluster.Resources, len(p.vmHome))
	for i := range p.applied {
		for _, avm := range p.applied[i].vms {
			if int(avm.vm) < len(fluid) {
				fluid[avm.vm] = fluid[avm.vm].Add(avm.res())
			}
		}
	}
	for vmi, home := range p.vmHome {
		if home == ids.None {
			continue
		}
		vmID := cluster.VMID(vmi)
		vm := p.Cluster.VM(vmID)
		if vm == nil {
			continue // I1.RIP_LIVE_VM already flagged it
		}
		sess := at(p.sessVM, ids.Index(vmi))
		if !sess.NonNegative() {
			rep.Addf("core", "I4.SESS_NONNEG",
				"session overlay >= 0", sess.String(), "vm %d", vmID)
		}
		want := sess.Add(fluid[vmi])
		if !sameBits(vm.Demand, want) {
			rep.Addf("core", "I4.VM_DEMAND_SUM",
				fmt.Sprintf("VM demand == session+fluid == %v", want),
				vm.Demand.String(), "vm %d", vmID)
		}
	}
}

// auditNetwork checks I5: link loads decompose into per-VIP route
// shares, and (when Config.AuditOverloadUtil is set) no link or switch
// exceeds the modeled utilization ceiling. The overload check is opt-in
// because several experiments overload links on purpose (EXPERIMENTS.md
// E4/E9).
func (p *Platform) auditNetwork(rep *audit.Report) {
	if err := p.Net.CheckInvariants(); err != nil {
		rep.Add("netmodel", "I5.LINK_DECOMP", "link loads equal per-VIP shares", err.Error(), "")
	}
	limit := p.Cfg.AuditOverloadUtil
	if limit <= 0 {
		return
	}
	for _, l := range p.Net.Links() {
		if u := l.Utilization(); u > limit {
			rep.Addf("netmodel", "I5.LINK_OVERLOAD",
				fmt.Sprintf("link utilization <= %v", limit), fmt.Sprintf("%v", u),
				"link %d", l.ID)
		}
	}
	for _, sw := range p.Fabric.Switches() {
		if u := sw.BottleneckUtilization(); u > limit {
			rep.Addf("lbswitch", "I5.SWITCH_OVERLOAD",
				fmt.Sprintf("switch utilization <= %v", limit), fmt.Sprintf("%v", u),
				"switch %d", sw.ID)
		}
	}
}

// fitsWithSlack is Resources.Fits with a relative float tolerance: pod
// sums accumulate in sorted order, but used and capacity are still sums
// of many terms.
func fitsWithSlack(r, c cluster.Resources) bool {
	within := func(x, lim float64) bool { return x <= lim+1e-9*(1+math.Abs(lim)) }
	return within(r.CPU, c.CPU) && within(r.MemMB, c.MemMB) && within(r.NetMbps, c.NetMbps)
}

// sameBits compares two Resources values bit-for-bit per component.
func sameBits(a, b cluster.Resources) bool {
	return math.Float64bits(a.CPU) == math.Float64bits(b.CPU) &&
		math.Float64bits(a.MemMB) == math.Float64bits(b.MemMB) &&
		math.Float64bits(a.NetMbps) == math.Float64bits(b.NetMbps)
}
