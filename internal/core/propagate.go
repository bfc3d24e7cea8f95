package core

import (
	"cmp"
	"fmt"
	"math"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"megadc/internal/cluster"
	"megadc/internal/ids"
	"megadc/internal/lbswitch"
	"megadc/internal/netmodel"
)

// Incremental demand propagation.
//
// Propagate used to be a full-stack recompute — every VM zeroed, every
// keyed slice rebuilt and sorted, every app's DNS shares re-queried, and
// every VIP's RIP fan-out re-walked — on every manager action and demand
// tick, making a run O(events × VIPs × RIPs). This file makes the
// steady-state cost proportional to what changed instead:
//
//   - Every mutation that can shift where demand lands marks the owning
//     application dirty: SetAppDemand directly; DNS exposure changes via
//     dnsctl's OnChange hook; switch VIP/RIP/weight reconfigurations via
//     lbswitch's OnReconfig hook; route advertisements via netmodel's
//     OnRouteChange hook (resolved to an owner through vipOwner); and
//     switch/link fault-repair transitions explicitly (failures.go).
//   - Every marking but SetAppDemand's is structural: it also drops the
//     app from inputsOK, the set of apps whose ledger still holds the
//     DNS share, reachability and home each VIP was last computed with.
//     An app dirty only through its demand recomputes from those
//     recorded inputs, reading neither DNS nor routes nor homes.
//   - Propagate recomputes only the dirty applications. For each one it
//     first undoes the app's previously applied contributions (recorded
//     in an appApplied ledger) and then applies freshly computed ones.
//   - Every value is written canonically — assigned from inputs, never
//     accumulated across Propagate calls — so the state after an
//     incremental pass is bit-for-bit identical to the state after a
//     full recompute. Link loads and switch throughput are likewise
//     canonical sums in fixed order (see netmodel.Link.LoadMbps and
//     lbswitch.Switch.ThroughputMbps). This equivalence is what lets a
//     periodic full-recompute fallback and a parallel compute phase
//     coexist with the incremental path without changing any result,
//     and it is checked exactly by Config.PropagateDebugCheck.
//
// The dirty path is phase-separated: a sequential undo phase (and table
// growth), a compute phase that only reads shared state and fills
// disjoint per-app ledgers, and a sequential apply phase in ascending
// app order. Nothing the compute phase reads is written by the undo or
// apply phases of *other* apps (each VIP and VM belongs to exactly one
// app, and compute reads exposure/placement/weights, not loads), so the
// compute phase can fan out across the worker pool and the result stays
// bit-identical for any worker count — determinism comes from the
// sorted sequential apply, the same contract placement.ParallelPlace
// meets. The full path goes further: each pool worker also resets its
// apps' VMs and writes their demand, since a VM's demand sums only its
// own app's ledger (the audit's I1.RIP_TAG_APP); only the VIP writes,
// which reach netmodel and lbswitch, stay sequential.
//
// The ledgers are the only record of the fluid part of each
// observable. The invariant between Propagate calls: for every VIP,
// net traffic = ledger traffic + sessVIP[vip] and
// switch load  = ledger swLoad + sessVIP[vip], read from the VIP's
// entry in its owner's ledger (appliedVIPLoad); for every VM,
// demand = sessVM[vm] + its entries in its app's ledger
// (appliedVMDemand). SessionOpened/SessionClosed keep the invariant by
// rewriting these same expressions, so discrete session churn needs no
// dirty marking at all.

// defaultFullEvery is the period of the full-recompute safety net when
// Config.PropagateFullEvery is 0.
const defaultFullEvery = 256

// parallelThreshold is the minimum number of apps in a compute phase
// before it fans out across workers; below it the handoff overhead
// outweighs the compute.
const parallelThreshold = 64

// appliedVIP records what one Propagate wrote for one VIP of an app,
// and the inputs it was computed from: a demand-only recompute reuses
// share, hasHome and reach while the app is in inputsOK.
type appliedVIP struct {
	vip     ids.Index // VIP handle
	hasHome bool
	act     bool    // carried demand: counts toward the active-VIP set
	share   float64 // the VIP's DNS share of the app's demand
	reach   float64 // reachability on the home switch (0 when not serving or no home)
	traffic float64 // fluid Mbps set on the access network (pre-reachability)
}

// swLoad returns the fluid Mbps set on the home switch: the traffic
// that reaches it, by the expression computeVIP applied.
func (av *appliedVIP) swLoad() float64 { return av.traffic * av.reach }

// appliedVM records the fluid demand one Propagate added to one VM.
// Fluid demand has no memory part, so the entry holds the CPU and
// network parts alone: 24 bytes, not the 32 of a VM ID and a full
// Resources.
type appliedVM struct {
	vm  cluster.VMID
	cpu float64
	net float64
}

// res returns the entry's demand as Resources, its memory zero.
func (a appliedVM) res() cluster.Resources {
	return cluster.Resources{CPU: a.cpu, NetMbps: a.net}
}

// appApplied is the per-application ledger of applied contributions;
// its slices are truncated and reused so steady-state recomputes do
// not allocate.
type appApplied struct {
	vips []appliedVIP
	vms  []appliedVM
}

func (r *appApplied) reset() {
	r.vips = r.vips[:0]
	r.vms = r.vms[:0]
}

// propPool is the persistent Propagate worker pool. Workers are
// spawned once (growing to the configured width on first parallel
// pass) and parked on their start channels between passes, so a
// steady-state parallel Propagate allocates nothing.
type propPool struct {
	start []chan struct{} // one slot per worker; send = run one pass
	wg    sync.WaitGroup
	// The pass, read-only while it runs: n work items handed out chunk
	// at a time from cursor; a full pass's items are the app IDs [0, n),
	// a dirty pass's are apps[0:n].
	full     bool
	apps     []int32
	n, chunk int64
	cursor   atomic.Int64
	foreign  atomic.Bool    // a full pass met a ledger VM it may not write
	live     sync.WaitGroup // running workers, for Platform.Close to wait on
	closed   bool           // Platform.Close ran: compute sequentially from now on
}

// insertSorted inserts v into sorted s if absent, keeping s sorted.
func insertSorted[T cmp.Ordered](s []T, v T) []T {
	i, found := slices.BinarySearch(s, v)
	if found {
		return s
	}
	var zero T
	s = append(s, zero)
	copy(s[i+1:], s[i:])
	s[i] = v
	return s
}

// removeSorted removes v from sorted s if present.
func removeSorted[T cmp.Ordered](s []T, v T) []T {
	if i, found := slices.BinarySearch(s, v); found {
		s = append(s[:i], s[i+1:]...)
	}
	return s
}

// markAppDirty queues app for a structural recomputation on the next
// Propagate: its DNS shares, VIP homes and reachability are read anew.
func (p *Platform) markAppDirty(app cluster.AppID) {
	p.dirtyApps.Set(int(app))
	p.inputsOK.Clear(int(app))
}

// markDemandDirty queues app for recomputation after a change to its
// demand alone, which leaves its ledger's recorded VIP inputs current.
func (p *Platform) markDemandDirty(app cluster.AppID) {
	p.dirtyApps.Set(int(app))
}

// markVIPDirty marks the application owning the VIP with handle h
// dirty, when known.
func (p *Platform) markVIPDirty(h ids.Index) {
	if h < 0 || int(h) >= len(p.vipOwner) {
		return
	}
	if owner := p.vipOwner[h]; owner >= 0 {
		p.markAppDirty(owner)
	}
}

// onSwitchReconfig is the lbswitch.Switch OnReconfig hook: any VIP/RIP
// membership or weight change re-routes that VIP's demand. It also
// maintains the VIP→owner index (AddVIP always precedes any route or
// session activity on a VIP, so the index is complete by construction).
func (p *Platform) onSwitchReconfig(h ids.Index, app cluster.AppID) {
	p.vipOwner = growFill(p.vipOwner, int(h)+1, cluster.AppID(-1))
	p.vipOwner[h] = app
	p.markAppDirty(app)
}

// markVIPActive adds the VIP index to the active set.
func (p *Platform) markVIPActive(vi ids.Index) {
	p.activeVIPs.Set(int(vi))
}

// unmarkVIPActive removes the VIP index from the active set.
func (p *Platform) unmarkVIPActive(vi ids.Index) {
	p.activeVIPs.Clear(int(vi))
}

// workers returns the compute-phase fan-out width.
func (p *Platform) workers() int {
	if p.Cfg.PropagateWorkers > 0 {
		return p.Cfg.PropagateWorkers
	}
	return runtime.GOMAXPROCS(0)
}

// Propagate pushes application demand through the whole stack:
// DNS exposure weights split each app's demand over its VIPs; each VIP's
// bandwidth lands on its advertised access link and its home LB switch;
// each VIP's demand splits over its RIPs by LB weight; and each RIP's
// share becomes its VM's demand. Call after any change to demand,
// exposure, placement, or weights. Managers call it automatically after
// their actions.
//
// Only applications marked dirty since the last call are recomputed;
// everything that can shift demand marks the owner dirty (see the file
// comment), so callers need not know which path runs. A full recompute
// runs every Config.PropagateFullEvery calls, when more than half the
// demand-carrying apps are dirty, or on demand via PropagateFull; by
// construction both paths produce bit-identical state.
func (p *Platform) Propagate() {
	p.propagateTicks++
	fullEvery := p.Cfg.PropagateFullEvery
	if fullEvery == 0 {
		fullEvery = defaultFullEvery
	}
	full := (fullEvery > 0 && p.propagateTicks%int64(fullEvery) == 0) ||
		2*p.dirtyApps.Count() >= p.demandApps.Count()
	if full {
		p.propagateFull()
		p.dirtyApps.Reset()
	} else {
		p.propagateDirty() // clears consumed dirty bits itself
		if p.Cfg.PropagateDebugCheck {
			p.debugCheckAgainstFull()
		}
	}
	if p.Cfg.AuditEvery > 0 {
		p.maybeAudit()
	}
}

// PropagateFull forces a full recompute of all demand state. Results
// are identical to Propagate; exported for benchmarks and debugging.
func (p *Platform) PropagateFull() {
	p.propagateFull()
	p.dirtyApps.Reset()
}

// appliedFor returns app's ledger, growing the table to cover it.
func (p *Platform) appliedFor(app cluster.AppID) *appApplied {
	p.applied = growSlice(p.applied, int(app)+1)
	return &p.applied[app]
}

// propagateDirty recomputes only the dirty applications: a sequential
// undo phase, a (possibly parallel) compute phase, and a sequential
// apply phase in ascending app order.
func (p *Platform) propagateDirty() {
	apps := p.dirtyApps.AppendMembers(p.dirtyScratch[:0])
	p.dirtyScratch = apps
	if len(apps) == 0 {
		return
	}
	comp := p.computeScratch[:0]
	for _, ai := range apps {
		p.dirtyApps.Clear(int(ai))             // O(dirty), not O(table)
		rec := p.appliedFor(cluster.AppID(ai)) // grown here, before compute takes pointers
		switch {
		case !p.demandApps.Get(int(ai)):
			p.undoApp(rec)
			rec.reset()
			p.inputsOK.Clear(int(ai))
			continue
		case p.inputsOK.Get(int(ai)):
			// Only the demand changed: each VIP keeps its recorded
			// inputs, so its new traffic needs no RIP group and is
			// written now, in place of the undo.
			for i := range rec.vips {
				rec.vips[i].spread(p.appDemand[ai])
			}
			p.applyVIPs(rec)
			p.undoVMs(rec)
		default:
			p.undoApp(rec)
		}
		rec.vms = rec.vms[:0]
		comp = append(comp, ai)
	}
	p.computeScratch = comp
	p.runPass(false, comp, int64(len(comp)))
	for _, ai := range comp {
		if !p.inputsOK.Get(int(ai)) {
			p.applyVIPs(&p.applied[ai])
		}
		p.applyVMs(&p.applied[ai])
		p.inputsOK.Set(int(ai))
	}
}

// computeDirty fills the ledger of dirty app ai: from its recorded VIP
// inputs when a change to its demand alone dirtied it, else from
// scratch.
func (p *Platform) computeDirty(ai int32) {
	app, rec := cluster.AppID(ai), &p.applied[ai]
	if p.inputsOK.Get(int(ai)) {
		for i := range rec.vips {
			p.computeVIP(app, p.appDemand[ai], &rec.vips[i], rec)
		}
		return
	}
	rec.vips = rec.vips[:0]
	p.computeApp(app, p.appDemand[ai], rec)
}

// propagateFull recomputes every application from scratch: every
// previously active VIP falls to its session-overlay base, then one
// pass over every app resets the app's VMs to their session base,
// computes its ledger and writes its VM demand, and a sequential pass
// in ascending app order writes the VIPs.
func (p *Platform) propagateFull() {
	// Clear previously active VIPs down to their session-only load; the
	// apply phase re-marks the ones still carrying demand.
	act := p.activeVIPs.AppendMembers(p.activeScratch[:0])
	p.activeScratch = act
	for _, a := range act {
		vi := ids.Index(a)
		sess := at(p.sessVIP, vi)
		p.Net.SetVIPTraffic(vi, sess)
		p.Fabric.SetLoad(vi, sess) // a no-op when the VIP lost its home
		if sess == 0 {
			p.activeVIPs.Clear(int(vi))
		}
	}
	apps := p.demandApps.AppendMembers(p.appScratch[:0])
	p.appScratch = apps
	// Every app with a ledger, a VM or demand takes part: the VMs of an
	// app without demand still fall to their base.
	n := max(len(p.applied), p.Cluster.NumApps())
	if len(apps) > 0 {
		n = max(n, int(apps[len(apps)-1])+1)
	}
	p.applied = growSlice(p.applied, n)
	if !p.runPass(true, nil, int64(n)) {
		// Some ledger names a VM of another app, or one without a home,
		// so the pass left those apps' VMs unwritten: rebuild every VM
		// the sequential way, resets first and then every ledger in
		// ascending app order.
		for vm, home := range p.vmHome {
			if home == ids.None {
				continue
			}
			if v := p.Cluster.VM(cluster.VMID(vm)); v != nil {
				v.Demand = at(p.sessVM, ids.Index(vm))
			}
		}
		for _, ai := range apps {
			p.applyVMs(&p.applied[ai])
		}
	}
	p.inputsOK.Reset()
	for _, ai := range apps {
		p.applyVIPs(&p.applied[ai])
		p.inputsOK.Set(int(ai))
	}
}

// fullApp is one app's share of a full pass: it resets the app's homed
// VMs to their session base, computes its ledger when it carries demand
// and writes its VM demand. It writes only VMs of app, so full passes
// run it concurrently for distinct apps; when the ledger names a VM it
// may not write — another app's, or one without a home, which the
// reset skipped — it leaves the VMs and reports false.
func (p *Platform) fullApp(ai int32) bool {
	app, rec := cluster.AppID(ai), &p.applied[ai]
	rec.reset()
	if a := p.Cluster.App(app); a != nil {
		for _, id := range a.VMIDsView() {
			if v := p.Cluster.VM(id); v != nil && p.vmHomeOf(id) != ids.None {
				v.Demand = at(p.sessVM, ids.Index(id))
			}
		}
	}
	if !p.demandApps.Get(int(ai)) {
		return true
	}
	p.computeApp(app, p.appDemand[ai], rec)
	for i := range rec.vms {
		id := rec.vms[i].vm
		if p.Cluster.VM(id).App != app || p.vmHomeOf(id) == ids.None {
			return false
		}
	}
	p.applyVMs(rec)
	return true
}

// poolChunk is the most work items a pool worker takes per cursor step.
const poolChunk = 256

// runPass runs one pass over n work items — a full pass's fullApp over
// app IDs [0, n), or a dirty pass's computeDirty over apps[0:n] —
// fanning out across the worker pool when the width and item count
// warrant it. It reports whether every fullApp succeeded.
func (p *Platform) runPass(full bool, apps []int32, n int64) bool {
	// The item count is checked first: a small incremental pass then
	// skips workers(), whose GOMAXPROCS call takes a runtime lock.
	if n >= parallelThreshold && !p.pool.closed {
		if nw := p.workers(); nw > 1 {
			return p.runPassParallel(full, apps, n, nw)
		}
	}
	return p.runItems(full, apps, 0, n)
}

// runItems runs work items [lo, hi) of a pass.
func (p *Platform) runItems(full bool, apps []int32, lo, hi int64) bool {
	ok := true
	for i := lo; i < hi; i++ {
		if full {
			ok = p.fullApp(int32(i)) && ok
		} else {
			p.computeDirty(apps[i])
		}
	}
	return ok
}

// ensurePool grows the persistent worker pool to nw workers. Workers
// park on their start channel between passes.
func (p *Platform) ensurePool(nw int) {
	for len(p.pool.start) < nw {
		ch := make(chan struct{}, 1)
		p.pool.start = append(p.pool.start, ch)
		p.pool.live.Add(1)
		go func() {
			defer p.pool.live.Done()
			pl := &p.pool
			for range ch {
				for {
					lo := pl.cursor.Add(pl.chunk) - pl.chunk
					if lo >= pl.n {
						break
					}
					if !p.runItems(pl.full, pl.apps, lo, min(lo+pl.chunk, pl.n)) {
						pl.foreign.Store(true)
					}
				}
				pl.wg.Done()
			}
		}()
	}
}

// runPassParallel runs a pass on the persistent pool, each worker
// taking chunks of items from a shared cursor. The items of a pass
// write disjoint state (ledgers, and on a full pass the VMs of distinct
// apps) and read nothing another item writes, so any scheduling yields
// the same state. The channel send publishes the pass to each worker;
// wg.Wait orders their writes before return.
func (p *Platform) runPassParallel(full bool, apps []int32, n int64, nw int) bool {
	nw = min(nw, int(n))
	p.ensurePool(nw)
	pl := &p.pool
	pl.full, pl.apps, pl.n = full, apps, n
	pl.chunk = max(1, min(poolChunk, n/int64(4*nw)))
	pl.cursor.Store(0)
	pl.foreign.Store(false)
	pl.wg.Add(nw)
	for w := 0; w < nw; w++ {
		pl.start[w] <- struct{}{}
	}
	pl.wg.Wait()
	pl.apps = nil
	return !pl.foreign.Load()
}

// computeApp fills rec with app's fluid contributions under the current
// DNS shares, VIP homes, reachability, and RIP weights, recording each
// VIP's inputs for later demand-only recomputes. It reads platform
// state but writes only rec, so it is safe to run concurrently for
// distinct apps. An app without a DNS record has no VIPs: its demand is
// unroutable.
func (p *Platform) computeApp(app cluster.AppID, demand Demand, rec *appApplied) {
	x := p.DNS.Exposures(app)
	total := x.Total()
	for i := 0; i < x.Len(); i++ {
		av := appliedVIP{vip: x.Handle(i), share: x.Share(i, total)}
		if home, ok := p.Fabric.Home(av.vip); ok {
			// Black-holing: an undetected link failure drops the share of
			// the VIP's traffic routed over the dead link, and an
			// undetected switch failure drops the whole VIP. The clients
			// still send the demand (traffic keeps the full value — the
			// packets do cross the access links), it just never reaches
			// a VM, which is exactly the gap the availability accounting
			// measures.
			av.hasHome = true
			if p.Fabric.Switch(home).Serving() {
				av.reach = p.vipReachability(av.vip)
			}
		}
		rec.vips = append(rec.vips, av)
		p.computeVIP(app, demand, &rec.vips[len(rec.vips)-1], rec)
	}
}

// spread sets av's traffic and activity from the app's demand and the
// VIP's recorded share, and returns the VIP's part of the demand.
func (av *appliedVIP) spread(demand Demand) (vipMbps, vipCPU float64) {
	vipMbps = demand.Mbps * av.share
	vipCPU = demand.CPU * av.share
	av.traffic = vipMbps
	av.act = vipMbps > 0 || vipCPU > 0
	return vipMbps, vipCPU
}

// computeVIP spreads demand onto av and appends to rec the VM demand
// its RIP group receives when its home switch is reached.
func (p *Platform) computeVIP(app cluster.AppID, demand Demand, av *appliedVIP, rec *appApplied) {
	vipMbps, vipCPU := av.spread(demand)
	if !av.hasHome || av.reach == 0 {
		return
	}
	vipMbps *= av.reach
	vipCPU *= av.reach
	g, ok := p.Fabric.GroupOf(av.vip)
	if !ok {
		return
	}
	// The switch splits the load by weight, load*w/Σw; CPU follows the
	// same proportions, each RIP's part of the summed split.
	n := g.Len()
	var totalW, totalMbps float64
	for j := 0; j < n; j++ {
		totalW += g.Weight(j)
	}
	if totalW > 0 {
		for j := 0; j < n; j++ {
			totalMbps += vipMbps * g.Weight(j) / totalW
		}
	}
	even := 1 / float64(n) // an all-zero split spreads the CPU evenly
	// Room for the whole group up front; appended one by one, a new
	// ledger regrows 0→1→2→…→32 to hold 20 RIPs.
	rec.vms = slices.Grow(rec.vms, n)
	for j := 0; j < n; j++ {
		m, frac := 0.0, even
		if totalW > 0 {
			m = vipMbps * g.Weight(j) / totalW
		}
		if totalMbps > 0 {
			frac = m / totalMbps
		}
		vmID := vmOfTag(g.Tag(j))
		if p.Cluster.VM(vmID) == nil {
			continue
		}
		rec.vms = append(rec.vms, appliedVM{vm: vmID, cpu: vipCPU * frac, net: m})
	}
}

// vmOfTag resolves a switch RIP entry's tag to the VM behind it. The
// platform tags every entry it configures with the VM's ID, and the tag
// is the only RIP → VM mapping; an untagged entry (-1) names no VM, so
// it backs none.
func vmOfTag(tag int32) cluster.VMID { return cluster.VMID(tag) }

// undoApp removes an app's previously applied contributions, leaving
// each touched VIP and VM at its session-overlay base; undoVMs does the
// VMs alone.
func (p *Platform) undoApp(rec *appApplied) {
	for i := range rec.vips {
		av := &rec.vips[i]
		sess := at(p.sessVIP, av.vip)
		p.Net.SetVIPTraffic(av.vip, sess)
		// The VIP may have moved switches (or lost its home) since the
		// ledger was written; SetLoad writes its current home, if any.
		p.Fabric.SetLoad(av.vip, sess)
		if sess == 0 {
			p.unmarkVIPActive(av.vip)
		}
	}
	p.undoVMs(rec)
}

func (p *Platform) undoVMs(rec *appApplied) {
	for i := range rec.vms {
		avm := &rec.vms[i]
		if vm := p.Cluster.VM(avm.vm); vm != nil {
			vm.Demand = at(p.sessVM, ids.Index(avm.vm))
		}
	}
}

// applyVIPs writes an app's freshly computed VIP contributions, and
// applyVMs its VM contributions. Every write is canonical — base plus
// fluid in one expression, and the VIP's active bit exactly whether it
// carries either — so applying after undoApp reproduces exactly the
// state a full recompute builds, and applyVIPs over a VIP list whose
// inputs did not change needs no undo before it.
func (p *Platform) applyVIPs(rec *appApplied) {
	for i := range rec.vips {
		av := &rec.vips[i]
		sess := at(p.sessVIP, av.vip)
		p.Net.SetVIPTraffic(av.vip, av.traffic+sess)
		if av.hasHome {
			p.Fabric.SetLoad(av.vip, av.swLoad()+sess)
		}
		if av.act || sess > 0 {
			p.markVIPActive(av.vip)
		} else {
			p.unmarkVIPActive(av.vip)
		}
	}
}

func (p *Platform) applyVMs(rec *appApplied) {
	for i := range rec.vms {
		avm := &rec.vms[i]
		if vm := p.Cluster.VM(avm.vm); vm != nil {
			vm.Demand = vm.Demand.Add(avm.res())
		}
	}
}

// appliedVIPLoad returns the fluid traffic and home-switch load
// Propagate last applied to the VIP with handle vi, read from its entry
// in its owner's ledger; a VIP without an entry, or whose entry had no
// home, reads zero for the missing part.
func (p *Platform) appliedVIPLoad(vi ids.Index) (traffic, swLoad float64) {
	if int(vi) >= len(p.vipOwner) {
		return 0, 0
	}
	owner := p.vipOwner[vi]
	if owner < 0 || int(owner) >= len(p.applied) {
		return 0, 0
	}
	for i := range p.applied[owner].vips {
		av := &p.applied[owner].vips[i]
		if av.vip != vi {
			continue
		}
		if av.hasHome {
			swLoad = av.swLoad()
		}
		return av.traffic, swLoad
	}
	return 0, 0
}

// appliedVMDemand returns the fluid demand Propagate last applied to
// vm: its entries in its app's ledger, added in ledger order onto zero,
// exactly as applyRec added them.
func (p *Platform) appliedVMDemand(vm *cluster.VM) cluster.Resources {
	var sum cluster.Resources
	if int(vm.App) < len(p.applied) {
		for _, avm := range p.applied[vm.App].vms {
			if avm.vm == vm.ID {
				sum = sum.Add(avm.res())
			}
		}
	}
	return sum
}

// propState is a bitwise snapshot of everything Propagate writes, used
// by the debug cross-check: VM demand by VMID (zero for VMs without a
// RIP), VIP traffic and home-switch load by VIP handle (zero for
// unowned handles), and every switch throughput and link load. Captures
// reuse their slices, so checking every call allocates nothing after
// warm-up.
type propState struct {
	vmDemand   []cluster.Resources
	vipTraffic []uint64
	swVIPLoad  []uint64
	swLoads    []uint64
	linkLoads  []uint64
}

// capture overwrites s with the platform's current propagated state.
func (s *propState) capture(p *Platform) {
	s.vmDemand = s.vmDemand[:0]
	for vm, home := range p.vmHome {
		var d cluster.Resources
		if home != ids.None {
			if v := p.Cluster.VM(cluster.VMID(vm)); v != nil {
				d = v.Demand
			}
		}
		s.vmDemand = append(s.vmDemand, d)
	}
	s.vipTraffic, s.swVIPLoad = s.vipTraffic[:0], s.swVIPLoad[:0]
	for vi, owner := range p.vipOwner {
		var traffic, load float64
		if owner >= 0 {
			traffic = p.Net.VIPTraffic(ids.Index(vi))
			load = p.Fabric.Load(ids.Index(vi))
		}
		s.vipTraffic = append(s.vipTraffic, math.Float64bits(traffic))
		s.swVIPLoad = append(s.swVIPLoad, math.Float64bits(load))
	}
	s.swLoads = s.swLoads[:0]
	for i := 0; i < p.Fabric.NumSwitches(); i++ {
		s.swLoads = append(s.swLoads, math.Float64bits(p.Fabric.Switch(lbswitch.SwitchID(i)).ThroughputMbps()))
	}
	s.linkLoads = s.linkLoads[:0]
	for i := 0; ; i++ {
		l := p.Net.Link(netmodel.LinkID(i))
		if l == nil {
			break
		}
		s.linkLoads = append(s.linkLoads, math.Float64bits(l.LoadMbps()))
	}
}

// captureState returns a fresh snapshot of the propagated state.
func (p *Platform) captureState() *propState {
	s := &propState{}
	s.capture(p)
	return s
}

func (a *propState) diff(b *propState) string {
	if len(a.vmDemand) != len(b.vmDemand) {
		return fmt.Sprintf("vm count %d != %d", len(a.vmDemand), len(b.vmDemand))
	}
	for vm, da := range a.vmDemand {
		if db := b.vmDemand[vm]; da != db {
			return fmt.Sprintf("vm %d demand %+v != %+v", vm, da, db)
		}
	}
	if len(a.vipTraffic) != len(b.vipTraffic) {
		return fmt.Sprintf("vip count %d != %d", len(a.vipTraffic), len(b.vipTraffic))
	}
	for vi := range a.vipTraffic {
		if ta, tb := a.vipTraffic[vi], b.vipTraffic[vi]; ta != tb {
			return fmt.Sprintf("vip %d traffic %v != %v", vi, math.Float64frombits(ta), math.Float64frombits(tb))
		}
		if la, lb := a.swVIPLoad[vi], b.swVIPLoad[vi]; la != lb {
			return fmt.Sprintf("vip %d switch load %v != %v", vi, math.Float64frombits(la), math.Float64frombits(lb))
		}
	}
	for i := range a.swLoads {
		if a.swLoads[i] != b.swLoads[i] {
			return fmt.Sprintf("switch %d throughput %v != %v", i, math.Float64frombits(a.swLoads[i]), math.Float64frombits(b.swLoads[i]))
		}
	}
	for i := range a.linkLoads {
		if a.linkLoads[i] != b.linkLoads[i] {
			return fmt.Sprintf("link %d load %v != %v", i, math.Float64frombits(a.linkLoads[i]), math.Float64frombits(b.linkLoads[i]))
		}
	}
	return ""
}

// debugCheckAgainstFull verifies that the incremental pass left exactly
// the state a full recompute builds, and panics on any bit difference.
// The two captures live on the platform and are reused.
func (p *Platform) debugCheckAgainstFull() {
	p.checkBefore.capture(p)
	p.propagateFull()
	p.checkAfter.capture(p)
	if d := p.checkBefore.diff(&p.checkAfter); d != "" {
		panic("core: incremental propagation diverged from full recompute: " + d)
	}
}
