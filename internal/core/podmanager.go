package core

import (
	"cmp"
	"slices"
	"time"

	"megadc/internal/cluster"
	"megadc/internal/ctrlplane"
	"megadc/internal/ids"
	"megadc/internal/lbswitch"
	"megadc/internal/placement"
	"megadc/internal/trace"
	"megadc/internal/viprip"
)

// PodManager performs local resource allocation within one logical pod
// (paper Section III-A). It only knows its own servers and the
// applications covering the pod. Its knobs are the fast, pod-local ones:
// VM capacity adjustment (E), intra-pod RIP weight adjustment (F, via
// requests to the global VIP/RIP manager), and scale-out of overloaded
// applications onto lightly loaded servers in the same pod.
type PodManager struct {
	p   *Platform
	pod cluster.PodID

	// Action counters (experiment outputs).
	Resizes       int64
	WeightAdjusts int64
	LocalDeploys  int64
	Defrags       int64
	Steps         int64

	// Degraded-operation counters (DESIGN.md §12): decisions queued while
	// the pod was partitioned from the control plane, and their fate at
	// reconciliation — re-issued against fresh state, or dropped because
	// the condition that motivated them no longer holds.
	Deferred     int64
	Reconciled   int64
	DroppedStale int64

	// deferred queues the pod's non-local decisions (weight adjustments,
	// scale-outs — anything needing the CSM pipeline) made while
	// partitioned, FIFO, for Reconcile to replay after the heal. Pod-local
	// knobs (resize, defrag) keep running on local state throughout.
	deferred []deferredOp

	// Knob-F state, reused across steps so that a converged pod's weight
	// scan allocates nothing (see adjustIntraPodWeights and
	// desiredWeights). candidates is the latest candidate list and memos
	// each candidate's evaluation memo, index for index; the spares are
	// the buffers weightCandidates builds the next lists in.
	candidates []weightCandidate
	memos      []weightMemo
	spareCands []weightCandidate
	spareMemos []weightMemo
	wRIPs      []lbswitch.RIP
	wTags      []int32
	wWeights   []float64
	wInPod     []int     // positions in the group of the in-pod RIPs
	wCaps      []float64 // their VMs' CPU slices, parallel to wInPod

	// Local scale-out scratch (see localScaleOut).
	hots []hotApp
}

// hotApp is a local scale-out candidate: an application, its
// worst-overloaded VM in the pod, and the VIP that VM's RIP serves.
type hotApp struct {
	app      cluster.AppID
	overload float64
	vm       cluster.VMID
	vip      lbswitch.VIP
}

// weightCandidate is a VIP that may need an intra-pod redistribution,
// keyed by where a switch-by-switch scan would reach it.
type weightCandidate struct {
	sw  *lbswitch.Switch
	seq uint64 // the VIP's insertion sequence on sw
	vip lbswitch.VIP
}

// weightMemo is the memo of a candidate's last evaluation: noop reports
// that desiredWeights found nothing to do when every input it reads
// was at key.
type weightMemo struct {
	key  weightKey
	noop bool
}

// weightKey holds the generations that cover every input desiredWeights
// reads for a VIP homed on one switch:
//
//   - the group's RIPs, tags and weights: the switch's BackendGen (VIP
//     and RIP membership) and WeightGen (weight changes);
//   - each RIP's VM, its existence, server and CPU slice: the platform's
//     backend generation of the switch (cluster's OnVMChange hook,
//     routed to the home switch of the VM's VIP, and bindRIP);
//   - the pod of each VM's server: the cluster's PodGen.
//
// A VIP entry keeps its switch and seq for life, so (switch, seq) and an
// equal key mean the inputs are unchanged; audit invariant
// I3.WEIGHT_NOOP_CURRENT re-runs desiredWeights to check it.
type weightKey struct {
	swGen, weightGen, backendGen, podGen uint64
}

// weightKeyOf returns the current weight key of switch sw.
func (p *Platform) weightKeyOf(sw *lbswitch.Switch) weightKey {
	return weightKey{sw.BackendGen(), sw.WeightGen(), p.backendGen[sw.ID], p.Cluster.PodGen()}
}

// scanOrder orders candidates as the switch-by-switch scan reaches them.
func scanOrder(a, b weightCandidate) int {
	if c := cmp.Compare(a.sw.ID, b.sw.ID); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// deferredOp is one queued degraded-mode decision.
type deferredOp struct {
	kind deferredKind
	vip  lbswitch.VIP  // opWeights: the VIP whose weights wanted adjusting
	app  cluster.AppID // opScaleOut: the overloaded app
	hint lbswitch.VIP  // opScaleOut: the VIP the new instance should serve
}

type deferredKind int

const (
	opWeights deferredKind = iota
	opScaleOut
)

// resizeDeadband is the relative slack within which knob E leaves a
// slice alone, and weightDeadband the relative slack for knob F weight
// updates; both stop the two fast loops from endlessly correcting each
// other's float-level jitter.
const (
	resizeDeadband = 0.10
	weightDeadband = 0.10
	// shrinkHysteresis widens the shrink side further: shrinking frees
	// capacity another VM may immediately want back, so it only happens
	// when the slice is clearly oversized.
	shrinkHysteresis = 0.25
)

func newPodManager(p *Platform, pod cluster.PodID) *PodManager {
	return &PodManager{p: p, pod: pod}
}

// PodID returns the managed pod's ID.
func (pm *PodManager) PodID() cluster.PodID { return pm.pod }

// Utilization returns the pod's demand-based utilization: CPU demand
// over CPU capacity (what the managers act on; slice-based utilization
// lags demand).
func (pm *PodManager) Utilization() float64 {
	capRes := pm.p.Cluster.PodCapacity(pm.pod)
	if capRes.CPU <= 0 {
		return 0
	}
	return pm.p.Cluster.PodDemand(pm.pod).CPU / capRes.CPU
}

// SliceUtilization returns allocated slices over capacity.
func (pm *PodManager) SliceUtilization() float64 {
	return pm.p.Cluster.PodUtilization(pm.pod)
}

// DecisionSpace returns servers × VMs — the size proxy for the pod
// manager's allocation problem (E3's x-axis at fixed cluster size).
func (pm *PodManager) DecisionSpace() int {
	pd := pm.p.Cluster.Pod(pm.pod)
	if pd == nil {
		return 0
	}
	return pd.NumServers() * pm.p.Cluster.PodNumVMs(pm.pod)
}

// Step runs one control iteration: shrink idle slices, grow overloaded
// ones (knob E), rebalance intra-pod RIP weights (knob F), and scale out
// overloaded applications locally.
func (pm *PodManager) Step() {
	pm.Steps++
	if pm.p.Cfg.Enabled(KnobVMResize) {
		pm.resizeVMs()
		pm.defragment()
	}
	if pm.p.Cfg.Enabled(KnobRIPWeights) {
		pm.adjustIntraPodWeights()
	}
	if pm.p.Cfg.Enabled(KnobAppDeployment) {
		pm.localScaleOut()
	}
}

// resizeVMs is knob E: hot adjustment of VM hard slices. Two passes:
// first shrink slices whose demand dropped (never below the app default),
// releasing capacity; then grow overloaded VMs into the freed room.
func (pm *PodManager) resizeVMs() {
	pd := pm.p.Cluster.Pod(pm.pod)
	if pd == nil {
		return
	}
	head := 1 + pm.p.Cfg.VMHeadroom
	// The scans read the membership views: every resize is scheduled
	// with a delay, so no list changes while they run.
	for _, srv := range pd.Servers() {
		// Pass 1: shrink. A 5% deadband prevents the resize loop from
		// chattering against the weight-adjustment loop (knob F), whose
		// redistribution slightly shifts per-VM demand every step. The
		// pass also notes whether pass 2 has a VM to grow: one it neither
		// shrank (the shrink's claim makes pass 2 skip it) nor found
		// claimed, whose target passes the grow deadband. Nothing pass 2
		// reads changes in between, so a server with none skips it.
		growable := false
		for _, vmID := range srv.VMIDsView() {
			vm := pm.p.Cluster.VM(vmID)
			if vm.State != cluster.VMRunning || pm.p.claims.held(claimOf(int(pm.pod), claimVM, int(vmID))) {
				continue
			}
			def := pm.defaultSlice(vm.App)
			want := pm.targetSlice(vm, def, head)
			if want.CPU < vm.Slice.CPU*(1-shrinkHysteresis) || want.NetMbps < vm.Slice.NetMbps*(1-shrinkHysteresis) {
				pm.scheduleResize(vmID, want)
			} else if want.CPU > vm.Slice.CPU*(1+resizeDeadband) || want.NetMbps > vm.Slice.NetMbps*(1+resizeDeadband) {
				growable = true
			}
		}
		if !growable {
			continue
		}
		// Pass 2: grow.
		for _, vmID := range srv.VMIDsView() {
			vm := pm.p.Cluster.VM(vmID)
			if vm.State != cluster.VMRunning || pm.p.claims.held(claimOf(int(pm.pod), claimVM, int(vmID))) {
				continue
			}
			def := pm.defaultSlice(vm.App)
			want := pm.targetSlice(vm, def, head)
			if want.CPU > vm.Slice.CPU*(1+resizeDeadband) || want.NetMbps > vm.Slice.NetMbps*(1+resizeDeadband) {
				// Clamp growth to what the server can hold.
				free := srv.Free()
				grown := vm.Slice
				if dc := want.CPU - vm.Slice.CPU; dc > 0 {
					grow := dc
					if grow > free.CPU {
						grow = free.CPU
					}
					grown.CPU += grow
				}
				if dn := want.NetMbps - vm.Slice.NetMbps; dn > 0 {
					grow := dn
					if grow > free.NetMbps {
						grow = free.NetMbps
					}
					grown.NetMbps += grow
				}
				if grown != vm.Slice {
					pm.scheduleResize(vmID, grown)
				}
			}
		}
	}
}

// targetSlice computes the desired slice for a VM: demand plus headroom,
// but never below the application's default slice, with the memory
// footprint unchanged.
func (pm *PodManager) targetSlice(vm *cluster.VM, def cluster.Resources, head float64) cluster.Resources {
	want := cluster.Resources{
		CPU:     vm.Demand.CPU * head,
		MemMB:   vm.Slice.MemMB,
		NetMbps: vm.Demand.NetMbps * head,
	}
	if want.CPU < def.CPU {
		want.CPU = def.CPU
	}
	if want.NetMbps < def.NetMbps {
		want.NetMbps = def.NetMbps
	}
	return want
}

func (pm *PodManager) defaultSlice(app cluster.AppID) cluster.Resources {
	if s, ok := pm.p.appSliceOf(app); ok {
		return s
	}
	if a := pm.p.Cluster.App(app); a != nil {
		return a.DefaultSlice
	}
	return cluster.Resources{}
}

func (pm *PodManager) scheduleResize(vmID cluster.VMID, slice cluster.Resources) {
	pm.p.actuate(Action{
		Knob: KnobVMResize, Prio: viprip.PriorityNormal,
		Refs:  [3]trace.Ref{trace.VM(vmID), trace.Pod(pm.pod)},
		Delay: pm.p.Cfg.VMResizeLatency,
		Claim: claimOf(int(pm.pod), claimVM, int(vmID)),
		Apply: func() {
			vm := pm.p.Cluster.VM(vmID)
			if vm == nil {
				return // removed while the resize was in flight
			}
			oldCPU := vm.Slice.CPU
			if err := pm.p.Cluster.ResizeVM(vmID, slice); err == nil {
				pm.p.Cfg.Trace.Record(trace.EvResizeVM, oldCPU, slice.CPU,
					trace.VM(vmID), trace.Pod(pm.pod))
				pm.Resizes++
			}
		},
	})
}

// defragment unblocks knob E when a VM wants to grow but its server is
// full: the smallest co-located VM is live-migrated to another server in
// the pod (using the efficient VM migration the paper cites for knob D),
// freeing room for the next resize pass. One migration per pod per step
// keeps the churn bounded.
func (pm *PodManager) defragment() {
	pd := pm.p.Cluster.Pod(pm.pod)
	if pd == nil {
		return
	}
	trigger := 1 + resizeDeadband
	// The scans read the membership views: the migration is scheduled
	// with a delay, after the loop.
	for _, srv := range pd.Servers() {
		sid := srv.ID
		// A grow-blocked VM: overloaded past the deadband with no free
		// CPU left on the server. Non-serving servers are left alone —
		// detection, not defragmentation, handles their VMs.
		if !srv.Serving() || srv.Free().CPU > 1e-6 {
			continue
		}
		blocked := false
		for _, vmID := range srv.VMIDsView() {
			vm := pm.p.Cluster.VM(vmID)
			if vm.State == cluster.VMRunning && !pm.p.claims.held(claimOf(int(pm.pod), claimVM, int(vmID))) && vm.Overload() > trigger {
				blocked = true
				break
			}
		}
		if !blocked || srv.NumVMs() < 2 {
			continue
		}
		// Victim: the smallest co-located VM that fits elsewhere.
		// Nothing changes during the search, so a VM whose slice equals
		// the previous one's gets the same target.
		victim := cluster.VMID(-1)
		var victimCPU float64
		var dst cluster.ServerID
		var lastSlice cluster.Resources
		var target *cluster.Server
		searched := false
		for _, vmID := range srv.VMIDsView() {
			vm := pm.p.Cluster.VM(vmID)
			if vm.State != cluster.VMRunning || pm.p.claims.held(claimOf(int(pm.pod), claimVM, int(vmID))) {
				continue
			}
			if !searched || vm.Slice != lastSlice {
				lastSlice, searched = vm.Slice, true
				target = pm.p.emptiestServer(pm.pod, sid, vm.Slice)
			}
			if target == nil {
				continue
			}
			if victim == cluster.VMID(-1) || vm.Slice.CPU < victimCPU {
				victim, victimCPU, dst = vmID, vm.Slice.CPU, target.ID
			}
		}
		if victim == cluster.VMID(-1) {
			continue
		}
		pm.p.actuate(Action{
			Knob: KnobVMResize, Prio: viprip.PriorityLow,
			Refs:  [3]trace.Ref{trace.VM(victim), trace.Server(sid), trace.Server(dst)},
			Delay: pm.p.Cfg.VMMigrateLatency,
			Claim: claimOf(int(pm.pod), claimVM, int(victim)),
			Apply: func() {
				if pm.p.Cluster.VM(victim) == nil {
					return
				}
				if err := pm.p.Cluster.MigrateVM(victim, dst); err == nil {
					pm.p.Cfg.Trace.Record(trace.EvMigrateVM, 0, 0,
						trace.VM(victim), trace.Server(sid), trace.Server(dst))
					pm.Defrags++
					pm.p.Propagate()
				}
			},
		})
		return // one defrag per pod per step
	}
}

// adjustIntraPodWeights is the intra-pod half of knob F: for every VIP
// with two or more RIPs inside this pod, redistribute the *in-pod* share
// of the VIP's weight in proportion to each VM's slice capacity, keeping
// the in-pod total (and therefore the load on other pods) unchanged.
// The adjustment is enacted through the global VIP/RIP manager, as the
// paper requires.
//
// The scan is pod-local (DESIGN.md §18): candidates come from the pod's
// own VMs through the RIP binding tables, not from every VIP on every
// switch. They are visited in the order the switch-by-switch scan would
// reach them — home switch ID, then insertion sequence on that switch —
// because every issued adjustment allocates a CauseID and schedules its
// message in issue order. A candidate whose last evaluation found
// nothing to do, with its weight key unchanged since, is skipped: its
// evaluation would find nothing again.
func (pm *PodManager) adjustIntraPodWeights() {
	cands := pm.weightCandidates()
	for i, c := range cands {
		m := &pm.memos[i]
		key := pm.p.weightKeyOf(c.sw)
		if m.noop && m.key == key {
			continue
		}
		pm.p.work.weightEvals++
		m.key, m.noop = key, !pm.adjustVIP(c.sw, c.vip)
	}
}

// weightCandidates returns, in scan order, the VIPs homed on serving
// switches under which two or more of the pod's VMs have their RIPs.
// Every VIP desiredWeights can act on is among them. Each gets the
// evaluation memo it had in the previous list, when it was there, in
// pm.memos. The returned slice is the pod manager's, valid until the
// next call.
func (pm *PodManager) weightCandidates() []weightCandidate {
	p := pm.p
	pd := p.Cluster.Pod(pm.pod)
	if pd == nil {
		return nil
	}
	// Count the pod's VMs under each VIP in the platform's stamp table,
	// and take a VIP at its second VM: only the candidates are sorted.
	next := pm.spareCands[:0]
	p.vipStamp.begin()
	for _, srv := range pd.Servers() {
		for _, vmID := range srv.VMIDsView() {
			vi := p.vmHomeOf(vmID)
			if vi == ids.None {
				continue
			}
			n, first := p.vipStamp.mark(int(vi))
			if first {
				*n = 0
			}
			if *n++; *n != 2 {
				continue
			}
			home, ok := p.Fabric.Home(vi)
			if !ok {
				continue
			}
			sw := p.Fabric.Switch(home)
			if !sw.Serving() {
				continue
			}
			seq, _ := p.Fabric.Seq(vi)
			next = append(next, weightCandidate{sw: sw, seq: seq, vip: p.Fabric.Addr(vi)})
		}
	}
	slices.SortFunc(next, scanOrder)
	// Carry the memos over: both lists are in scan order, and (switch,
	// seq) names one VIP entry for as long as it lives.
	prev, prevMemos := pm.candidates, pm.memos
	memos := pm.spareMemos[:0]
	j := 0
	for i := range next {
		for j < len(prev) && scanOrder(prev[j], next[i]) < 0 {
			j++
		}
		var m weightMemo
		if j < len(prev) && prev[j] == next[i] {
			m = prevMemos[j]
		}
		memos = append(memos, m)
	}
	pm.candidates, pm.spareCands = next, prev
	pm.memos, pm.spareMemos = memos, prevMemos
	return next
}

// adjustVIP runs knob F on one VIP and reports whether desiredWeights
// found a redistribution to make (issued, or queued while degraded).
func (pm *PodManager) adjustVIP(sw *lbswitch.Switch, vip lbswitch.VIP) bool {
	newWeights, ok := pm.desiredWeights(sw, vip)
	if !ok {
		return false
	}
	if pm.degraded() {
		// Partitioned from the CSM pipeline: queue the intent (not the
		// weights — they are recomputed against fresh state at
		// reconciliation) and keep serving on the current configuration.
		pm.deferOp(deferredOp{kind: opWeights, vip: vip})
		return true
	}
	pm.issueWeights(vip, newWeights)
	return true
}

// desiredWeights computes the knob-F intra-pod weight redistribution for
// vip, returning ok=false when nothing exceeds the deadband. It works in
// the pod manager's scratch; only a returned weight vector is allocated,
// since the actuation that carries it outlives the step.
func (pm *PodManager) desiredWeights(sw *lbswitch.Switch, vip lbswitch.VIP) ([]float64, bool) {
	rips, tags, weights, err := sw.AppendWeightsTagged(vip, pm.wRIPs[:0], pm.wTags[:0], pm.wWeights[:0])
	pm.wRIPs, pm.wTags, pm.wWeights = rips, tags, weights
	if err != nil {
		return nil, false
	}
	inPod, caps := pm.wInPod[:0], pm.wCaps[:0]
	var inPodTotal, capTotal float64
	for i := range rips {
		vm := pm.p.Cluster.VM(vmOfTag(tags[i]))
		if vm == nil {
			continue
		}
		srv := pm.p.Cluster.Server(vm.Server)
		if srv == nil || srv.Pod != pm.pod {
			continue
		}
		inPod = append(inPod, i)
		inPodTotal += weights[i]
		caps = append(caps, vm.Slice.CPU)
		capTotal += vm.Slice.CPU
	}
	pm.wInPod, pm.wCaps = inPod, caps
	if len(inPod) < 2 || inPodTotal <= 0 || capTotal <= 0 {
		return nil, false
	}
	target := func(j int) float64 {
		w := inPodTotal * caps[j] / capTotal
		if w <= 0 {
			w = 1e-6 // weights must stay positive
		}
		return w
	}
	changed := false
	for j, i := range inPod {
		if diff := target(j) - weights[i]; diff > weightDeadband*inPodTotal || diff < -weightDeadband*inPodTotal {
			changed = true
			break
		}
	}
	if !changed {
		return nil, false
	}
	newWeights := append([]float64(nil), weights...)
	for j, i := range inPod {
		newWeights[i] = target(j)
	}
	// Renormalize exactly to preserve the full total against float drift.
	var oldTotal, newTotal float64
	for i := range weights {
		oldTotal += weights[i]
		newTotal += newWeights[i]
	}
	if newTotal > 0 {
		k := oldTotal / newTotal
		for i := range newWeights {
			newWeights[i] *= k
		}
	}
	return newWeights, true
}

// issueWeights enacts a knob-F adjustment through the CSM pipeline after
// the reconfiguration latency. Both fresh decisions and Reconcile
// reissues come through here, so each gets its own CauseID.
func (pm *PodManager) issueWeights(vip lbswitch.VIP, newWeights []float64) {
	pm.p.actuate(Action{
		Knob: KnobRIPWeights, Prio: viprip.PriorityNormal,
		Refs:  [3]trace.Ref{trace.VIP(vip), trace.Pod(pm.pod)},
		Delay: pm.p.Cfg.SwitchReconfigLatency,
		From:  ctrlplane.Pod(int(pm.pod)), To: ctrlplane.CSM, Name: "intra-weights",
		Apply: func() {
			if err := pm.p.VIPRIP.AdjustWeights(vip, newWeights); err == nil {
				pm.WeightAdjusts++
				pm.p.Propagate()
			}
		},
	})
}

// localScaleOut creates additional instances of overloaded applications
// on lightly loaded servers in the same pod — the pod manager's own
// elasticity response from Section III-A.
func (pm *PodManager) localScaleOut() {
	pd := pm.p.Cluster.Pod(pm.pod)
	if pd == nil {
		return
	}
	// Scale out as soon as a VM is persistently past the resize
	// deadband: below that, knob E still has room to act alone.
	trigger := 1 + resizeDeadband
	// Find, per app, the worst-overloaded VM in this pod (the first one,
	// in server then VM order, on ties) and the VIP its RIP serves: that
	// VIP is where the new instance must add capacity. Only VMs past the
	// trigger are collected; an app whose worst VM is past it has that
	// VM among them. The platform's app stamp table holds each app's
	// position in hots.
	hots := pm.hots[:0]
	stamps := &pm.p.appStamp
	stamps.begin()
	for _, srv := range pd.Servers() {
		for _, vmID := range srv.VMIDsView() {
			vm := pm.p.Cluster.VM(vmID)
			if vm.State != cluster.VMRunning {
				continue
			}
			ov := vm.Overload()
			if !(ov > trigger) {
				continue
			}
			at, first := stamps.mark(int(vm.App))
			if first {
				*at = int32(len(hots))
				hots = append(hots, hotApp{app: vm.App, overload: ov, vm: vm.ID})
			} else if h := &hots[*at]; ov > h.overload {
				h.overload, h.vm = ov, vm.ID
			}
		}
	}
	// Deterministic order: worst first, then app ID.
	slices.SortFunc(hots, func(a, b hotApp) int {
		if c := cmp.Compare(b.overload, a.overload); c != 0 {
			return c
		}
		return cmp.Compare(a.app, b.app)
	})
	for i := range hots {
		hots[i].vip, _ = pm.p.vipOfVM(hots[i].vm)
	}
	pm.hots = hots
	// Whether the pod has room for a slice is asked per hot app, mostly
	// for one default slice; the answer cannot change within the loop
	// (deployments are delayed), so the last one is reused.
	var roomSlice cluster.Resources
	room, asked := false, false
	for _, h := range hots {
		if pm.degraded() {
			// Degraded mode refuses new placements: existing VIPs keep
			// serving, the intent is queued for reconciliation.
			pm.deferOp(deferredOp{kind: opScaleOut, app: h.app, hint: h.vip})
			continue
		}
		if pm.p.claims.held(claimOf(int(pm.pod), claimDeploy, int(h.app))) {
			continue // a deployment for this app is already in flight
		}
		if slice := pm.defaultSlice(h.app); !asked || slice != roomSlice {
			roomSlice, asked = slice, true
			room = pm.p.emptiestServer(pm.pod, noServer, slice) != nil
		}
		if room {
			pm.scaleOut(h.app, h.vip, h.overload)
		}
	}
}

// tryScaleOut starts one local scale-out deployment for app, reporting
// whether a deployment was actually issued.
func (pm *PodManager) tryScaleOut(app cluster.AppID, vip lbswitch.VIP, overload float64) bool {
	if pm.p.claims.held(claimOf(int(pm.pod), claimDeploy, int(app))) {
		return false // a deployment for this app is already in flight
	}
	if pm.p.emptiestServer(pm.pod, noServer, pm.defaultSlice(app)) == nil {
		return false // no room locally; the global manager's problem
	}
	pm.scaleOut(app, vip, overload)
	return true
}

// scaleOut issues one local scale-out deployment for app.
func (pm *PodManager) scaleOut(app cluster.AppID, vip lbswitch.VIP, overload float64) {
	pm.p.actuate(Action{
		Knob: KnobAppDeployment, Prio: viprip.PriorityNormal,
		Refs:  [3]trace.Ref{trace.App(app), trace.Pod(pm.pod), trace.VIP(vip)},
		Delay: pm.p.Cfg.VMDeployLatency,
		Claim: claimOf(int(pm.pod), claimDeploy, int(app)),
		From:  ctrlplane.Pod(int(pm.pod)), To: ctrlplane.CSM, Name: "local-deploy",
		Apply: func() {
			if vm, err := pm.p.DeployInstanceFor(app, pm.pod, vip); err == nil {
				pm.p.Cfg.Trace.Record(trace.EvScaleOut, float64(vm.ID), overload,
					trace.App(app), trace.Pod(pm.pod), trace.VIP(vip))
				pm.LocalDeploys++
				pm.p.Propagate()
			}
		},
	})
}

// degraded reports whether this pod manager is partitioned from the
// control plane. Degraded pods serve their existing VIPs and keep the
// pod-local knobs (resize, defrag) running, but queue every decision
// that needs the CSM pipeline or the global manager.
func (pm *PodManager) degraded() bool {
	return pm.p.ctrl.Partitioned(ctrlplane.Pod(int(pm.pod)))
}

// deferOp queues one degraded-mode decision, deduplicating on intent
// (kind + target) so a long partition doesn't queue the same adjustment
// every control step; the freshest VIP hint wins.
func (pm *PodManager) deferOp(op deferredOp) {
	for i, q := range pm.deferred {
		if q.kind == op.kind && q.vip == op.vip && q.app == op.app {
			pm.deferred[i].hint = op.hint
			return
		}
	}
	pm.deferred = append(pm.deferred, op)
	pm.Deferred++
}

// Reconcile replays the pod's deferred decisions after its partition
// heals, FIFO, validating each against fresh state: weight adjustments
// recompute the knob-F redistribution (the deadband decides whether the
// divergence still matters), scale-outs re-check that the application is
// still overloaded. Intents whose motivating condition disappeared
// during the partition are dropped as stale rather than blindly applied.
func (pm *PodManager) Reconcile() {
	if len(pm.deferred) == 0 {
		return
	}
	queue := pm.deferred
	pm.deferred = nil
	for _, op := range queue {
		reissued := false
		switch op.kind {
		case opWeights:
			reissued = pm.reissueWeights(op.vip)
		case opScaleOut:
			reissued = pm.reissueScaleOut(op.app, op.hint)
		}
		if reissued {
			pm.Reconciled++
		} else {
			pm.DroppedStale++
		}
	}
}

func (pm *PodManager) reissueWeights(vip lbswitch.VIP) bool {
	home, ok := pm.p.Fabric.HomeOf(vip)
	if !ok {
		return false // the VIP moved on (dropped, or mid-transfer)
	}
	sw := pm.p.Fabric.Switch(home)
	if sw == nil || !sw.Serving() {
		return false
	}
	newWeights, ok := pm.desiredWeights(sw, vip)
	if !ok {
		return false // converged on its own while we were away
	}
	pm.issueWeights(vip, newWeights)
	return true
}

func (pm *PodManager) reissueScaleOut(app cluster.AppID, hint lbswitch.VIP) bool {
	pd := pm.p.Cluster.Pod(pm.pod)
	if pd == nil {
		return false
	}
	worst := 0.0
	vip := hint
	for _, srv := range pd.Servers() {
		for _, vmID := range srv.VMIDsView() {
			vm := pm.p.Cluster.VM(vmID)
			if vm.App != app || vm.State != cluster.VMRunning {
				continue
			}
			if ov := vm.Overload(); ov > worst {
				worst = ov
				if v, ok := pm.p.vipOfVM(vmID); ok {
					vip = v
				}
			}
		}
	}
	if worst <= 1+resizeDeadband {
		return false // the overload resolved itself during the partition
	}
	return pm.tryScaleOut(app, vip, worst)
}

// BuildPlacementProblem converts the pod's current state into a
// placement problem: machines are the pod's servers, applications are
// those covering the pod with their current in-pod CPU demand, and
// Current is today's instance placement. Used by the pod-scale
// experiments (E2/E3) and by RunPlacement.
func (pm *PodManager) BuildPlacementProblem() (*placement.Problem, []cluster.AppID, []cluster.ServerID) {
	pd := pm.p.Cluster.Pod(pm.pod)
	if pd == nil {
		return &placement.Problem{}, nil, nil
	}
	serverIDs := pd.ServerIDs()
	machIndex := make(map[cluster.ServerID]int, len(serverIDs))
	for i, id := range serverIDs {
		machIndex[id] = i
	}
	prob := &placement.Problem{
		MachCPU: make([]float64, len(serverIDs)),
		MachMem: make([]float64, len(serverIDs)),
	}
	for i, id := range serverIDs {
		s := pm.p.Cluster.Server(id)
		prob.MachCPU[i] = s.Capacity.CPU
		prob.MachMem[i] = s.Capacity.MemMB
	}
	demand := make(map[cluster.AppID]float64)
	instances := make(map[cluster.AppID][]int)
	for _, sid := range serverIDs {
		srv := pm.p.Cluster.Server(sid)
		for _, vmID := range srv.VMIDsView() {
			vm := pm.p.Cluster.VM(vmID)
			demand[vm.App] += vm.Demand.CPU
			instances[vm.App] = append(instances[vm.App], machIndex[sid])
		}
	}
	apps := make([]cluster.AppID, 0, len(demand))
	for app := range demand {
		apps = append(apps, app)
	}
	slices.Sort(apps)
	for _, app := range apps {
		prob.AppDemand = append(prob.AppDemand, demand[app])
		prob.AppMem = append(prob.AppMem, pm.defaultSlice(app).MemMB)
		prob.Current = append(prob.Current, instances[app])
	}
	return prob, apps, serverIDs
}

// RunPlacement runs the placement controller on the pod's current state
// and reports the wall-clock decision time and solution quality.
func (pm *PodManager) RunPlacement() (elapsed time.Duration, satisfied float64, changes int) {
	prob, _, _ := pm.BuildPlacementProblem()
	if prob.NumApps() == 0 || prob.NumMachines() == 0 {
		return 0, 1, 0
	}
	ctl := &placement.Controller{}
	start := time.Now()
	sol := ctl.Place(prob)
	return time.Since(start), sol.SatisfiedFraction(prob), sol.Changes(prob)
}

// managerWork counts the per-item evaluations of the managers' steps.
type managerWork struct {
	weightEvals    int64 // knob-F candidates run through desiredWeights
	interPodVisits int64 // RIP groups inter-pod weights examined
}
