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
// Both the dirty path and the full path are phase-separated: a
// sequential mutation phase (undo previous contributions, refresh share
// caches, grow tables), a compute phase that only reads shared state
// and fills disjoint per-app ledgers, and a sequential apply phase in
// ascending app order. Nothing the compute phase reads is written by
// the undo or apply phases of *other* apps (each VIP and VM belongs to
// exactly one app, and compute reads exposure/placement/weights, not
// loads), so the compute phase can fan out across the worker pool on
// either path and the result stays bit-identical for any worker count —
// determinism comes from the sorted sequential apply, the same contract
// placement.ParallelPlace meets.
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

// appliedVIP records what one Propagate wrote for one VIP of an app.
type appliedVIP struct {
	vip     ids.Index // VIP handle
	traffic float64   // fluid Mbps set on the access network (pre-reachability)
	swLoad  float64   // fluid Mbps set on the home switch (post-reachability)
	hasHome bool
	act     bool // carried demand: counts toward the active-VIP set
}

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

// sharesCache holds an app's DNS expected shares by VIP handle,
// invalidated by the DNS record generation (gen 0 = no valid cache).
// Refreshed only in sequential phases; the compute phase reads it.
type sharesCache struct {
	gen    int64
	vips   []ids.Index
	shares []float64
}

// propScratch is reusable buffer space for the RIP fan-out; each pool
// worker owns one.
type propScratch struct {
	rips []lbswitch.RIP
	tags []int32
	mbps []float64
}

// propPool is the persistent compute-phase worker pool. Workers are
// spawned once (growing to the configured width on first parallel
// pass) and parked on their start channels between passes, so a
// steady-state parallel Propagate allocates nothing.
type propPool struct {
	start  []chan struct{} // one slot per worker; send = run one pass
	wg     sync.WaitGroup
	apps   []int32 // the pass's work list, read-only during the pass
	cursor atomic.Int64
	live   sync.WaitGroup // running workers, for Platform.Close to wait on
	closed bool           // Platform.Close ran: compute sequentially from now on
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

// markAppDirty queues app for recomputation on the next Propagate.
func (p *Platform) markAppDirty(app cluster.AppID) {
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

// refreshShares revalidates app's DNS share cache against the current
// record generation. Sequential phases only: it grows the cache table,
// unsafe under the concurrent compute phase.
func (p *Platform) refreshShares(app cluster.AppID) {
	gen := p.DNS.Gen(app)
	if gen == 0 {
		if int(app) < len(p.shareCache) {
			p.shareCache[app].gen = 0
		}
		return
	}
	p.shareCache = growSlice(p.shareCache, int(app)+1)
	c := &p.shareCache[app]
	if c.gen == gen {
		return
	}
	vips, shares, err := p.DNS.ExpectedShares(app)
	if err != nil {
		c.gen = 0
		return
	}
	c.gen = gen
	c.vips = append(c.vips[:0], vips...)
	c.shares = append(c.shares[:0], shares...)
}

// sharesRO returns app's share cache if it is current, else nil (no DNS
// record, or not refreshed this pass). Read-only: safe from the
// concurrent compute phase, whose apps were all refreshed beforehand.
func (p *Platform) sharesRO(app cluster.AppID) *sharesCache {
	if int(app) >= len(p.shareCache) {
		return nil
	}
	c := &p.shareCache[app]
	if c.gen == 0 || c.gen != p.DNS.Gen(app) {
		return nil
	}
	return c
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
// undo/refresh phase, a (possibly parallel) compute phase, and a
// sequential apply phase in ascending app order.
func (p *Platform) propagateDirty() {
	apps := p.dirtyApps.AppendMembers(p.dirtyScratch[:0])
	p.dirtyScratch = apps
	if len(apps) == 0 {
		return
	}
	comp := p.computeScratch[:0]
	for _, ai := range apps {
		p.dirtyApps.Clear(int(ai)) // O(dirty), not O(table)
		app := cluster.AppID(ai)
		rec := p.appliedFor(app) // grown here, before compute takes pointers
		p.undoApp(rec)
		rec.reset()
		if !p.demandApps.Get(int(ai)) {
			continue
		}
		p.refreshShares(app)
		comp = append(comp, ai)
	}
	p.computeScratch = comp
	p.computeApps(comp)
	for _, ai := range comp {
		p.applyRec(&p.applied[ai])
	}
}

// propagateFull recomputes every application from scratch: reset
// every observable to its session-overlay base and every ledger to
// empty, refresh every demand-carrying app's shares, then the same
// compute/apply phases as the dirty path over the full app set.
func (p *Platform) propagateFull() {
	// Reset every VM carrying a RIP to its session-overlay base.
	for vm, home := range p.vmHome {
		if home == ids.None {
			continue
		}
		if v := p.Cluster.VM(cluster.VMID(vm)); v != nil {
			v.Demand = at(p.sessVM, ids.Index(vm))
		}
	}
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
	for i := range p.applied {
		p.applied[i].reset()
	}
	apps := p.demandApps.AppendMembers(p.appScratch[:0])
	p.appScratch = apps
	if len(apps) == 0 {
		return
	}
	p.applied = growSlice(p.applied, int(apps[len(apps)-1])+1)
	for _, ai := range apps {
		p.refreshShares(cluster.AppID(ai))
	}
	p.computeApps(apps)
	for _, ai := range apps {
		p.applyRec(&p.applied[ai])
	}
}

// computeApps runs the compute phase over apps (ascending app indices),
// fanning out across the worker pool when the width and app count
// warrant it. Callers must have grown p.applied past the last app and
// refreshed every app's share cache.
func (p *Platform) computeApps(apps []int32) {
	// The app count is checked first: a small incremental pass then
	// skips workers(), whose GOMAXPROCS call takes a runtime lock.
	if len(apps) >= parallelThreshold && !p.pool.closed {
		if nw := p.workers(); nw > 1 {
			p.computeAppsParallel(apps, nw)
			return
		}
	}
	for _, ai := range apps {
		p.computeApp(cluster.AppID(ai), p.appDemand[ai], &p.applied[ai], &p.scratch)
	}
}

// ensurePool grows the persistent worker pool to nw workers. Workers
// park on their start channel between passes; each owns its scratch.
func (p *Platform) ensurePool(nw int) {
	for len(p.pool.start) < nw {
		ch := make(chan struct{}, 1)
		p.pool.start = append(p.pool.start, ch)
		p.pool.live.Add(1)
		go func() {
			defer p.pool.live.Done()
			sc := &propScratch{}
			for range ch {
				for {
					i := p.pool.cursor.Add(1) - 1
					if i >= int64(len(p.pool.apps)) {
						break
					}
					ai := p.pool.apps[i]
					p.computeApp(cluster.AppID(ai), p.appDemand[ai], &p.applied[ai], sc)
				}
				p.pool.wg.Done()
			}
		}()
	}
}

// computeAppsParallel fills each app's ledger concurrently on the
// persistent pool. The compute phase only reads platform state (share
// caches were refreshed by the caller) and writes disjoint ledgers, so
// any scheduling order yields the same ledgers; determinism comes from
// the sequential sorted apply. The channel send publishes the pass
// state to each worker; wg.Wait orders their writes before return.
func (p *Platform) computeAppsParallel(apps []int32, nw int) {
	if nw > len(apps) {
		nw = len(apps)
	}
	p.ensurePool(nw)
	p.pool.apps = apps
	p.pool.cursor.Store(0)
	p.pool.wg.Add(nw)
	for w := 0; w < nw; w++ {
		p.pool.start[w] <- struct{}{}
	}
	p.pool.wg.Wait()
	p.pool.apps = nil
}

// computeApp fills rec with app's fluid contributions under the current
// DNS shares, VIP homes, reachability, and RIP weights. It reads
// platform state but writes only rec and scratch, so it is safe to run
// concurrently for distinct apps.
func (p *Platform) computeApp(app cluster.AppID, demand Demand, rec *appApplied, scratch *propScratch) {
	sc := p.sharesRO(app)
	if sc == nil {
		return // app has no DNS record: demand is unroutable
	}
	for i, vi := range sc.vips {
		share := sc.shares[i]
		vipMbps := demand.Mbps * share
		vipCPU := demand.CPU * share
		av := appliedVIP{vip: vi, traffic: vipMbps, act: vipMbps > 0 || vipCPU > 0}
		home, ok := p.Fabric.Home(vi)
		if !ok {
			rec.vips = append(rec.vips, av)
			continue
		}
		sw := p.Fabric.Switch(home)
		// Black-holing: an undetected link failure drops the share of
		// the VIP's traffic routed over the dead link, and an undetected
		// switch failure drops the whole VIP. The clients still send the
		// demand (av.traffic keeps the full value — the packets do cross
		// the access links), it just never reaches a VM, which is
		// exactly the gap the availability accounting measures.
		reach := p.vipReachability(vi)
		if !sw.Serving() {
			reach = 0
		}
		vipMbps *= reach
		vipCPU *= reach
		av.hasHome = true
		av.swLoad = vipMbps
		rec.vips = append(rec.vips, av)
		if reach == 0 {
			continue
		}
		rips, tags, mbpsShares, err := p.Fabric.AppendLoadShareTagged(vi, vipMbps,
			scratch.rips[:0], scratch.tags[:0], scratch.mbps[:0])
		scratch.rips, scratch.tags, scratch.mbps = rips, tags, mbpsShares
		if err != nil {
			continue
		}
		// The load split distributes the fluid Mbps; CPU follows the
		// same weight proportions.
		var totalMbps float64
		for _, m := range mbpsShares {
			totalMbps += m
		}
		// Room for the whole group up front; appended one by one, a new
		// ledger regrows 0→1→2→…→32 to hold 20 RIPs.
		rec.vms = slices.Grow(rec.vms, len(rips))
		for j := range rips {
			frac := 0.0
			if totalMbps > 0 {
				frac = mbpsShares[j] / totalMbps
			} else if len(rips) > 0 {
				frac = 1 / float64(len(rips))
			}
			vmID := vmOfTag(tags[j])
			if p.Cluster.VM(vmID) == nil {
				continue
			}
			rec.vms = append(rec.vms, appliedVM{vm: vmID, cpu: vipCPU * frac, net: mbpsShares[j]})
		}
	}
}

// vmOfTag resolves a switch RIP entry's tag to the VM behind it. The
// platform tags every entry it configures with the VM's ID, and the tag
// is the only RIP → VM mapping; an untagged entry (-1) names no VM, so
// it backs none.
func vmOfTag(tag int32) cluster.VMID { return cluster.VMID(tag) }

// undoApp removes an app's previously applied contributions, leaving
// each touched VIP and VM at its session-overlay base.
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
	for i := range rec.vms {
		avm := &rec.vms[i]
		if vm := p.Cluster.VM(avm.vm); vm != nil {
			vm.Demand = at(p.sessVM, ids.Index(avm.vm))
		}
	}
}

// applyRec writes an app's freshly computed contributions. Every write
// is canonical — base plus fluid in one expression — so applying after
// undoApp reproduces exactly the state a full recompute would build.
func (p *Platform) applyRec(rec *appApplied) {
	for i := range rec.vips {
		av := &rec.vips[i]
		sess := at(p.sessVIP, av.vip)
		p.Net.SetVIPTraffic(av.vip, av.traffic+sess)
		if av.hasHome {
			p.Fabric.SetLoad(av.vip, av.swLoad+sess)
		}
		if av.act || sess > 0 {
			p.markVIPActive(av.vip)
		}
	}
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
			swLoad = av.swLoad
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
