package core

import (
	"cmp"
	"errors"
	"slices"

	"megadc/internal/cluster"
	"megadc/internal/ctrlplane"
	"megadc/internal/ids"
	"megadc/internal/lbswitch"
	"megadc/internal/netmodel"
	"megadc/internal/policy"
	"megadc/internal/trace"
	"megadc/internal/viprip"
)

// GlobalManager is the datacenter-scale resource manager (paper Section
// III-A). It monitors every pod, LB switch, and access link, and
// actuates the global knobs: selective VIP exposure (A), dynamic VIP
// transfer (B), server transfer between pods (C), dynamic application
// deployment (D), inter-pod RIP weight adjustment (F), and the
// elephant-pod guard.
type GlobalManager struct {
	p *Platform

	// Action counters (experiment outputs).
	ExposureChanges  int64
	VIPTransfers     int64
	ServerTransfers  int64
	Deployments      int64
	Removals         int64
	InterPodAdjusts  int64
	ElephantMoves    int64
	Steps            int64
	FailedTransfers  int64
	DrainForceBreaks int64
	VIPRecycles      int64

	// podSnap holds the last pod-utilization snapshot received over the
	// control plane; podUtil reads it instead of live state when the
	// stale-snapshot regime (Cfg.Ctrl.SnapshotEvery) is on.
	podSnap map[cluster.PodID]float64

	// Candidate scratch for the policy decision sites (DESIGN.md §15),
	// reused so feasibility filtering never allocates per decision.
	swCand  []*lbswitch.Switch
	podCand []cluster.PodID
	podLoad []float64

	// utils caches podUtil for every pod, by PodID, within one Step:
	// filled at the step's first podUtil call and dropped before the
	// elephant guard, whose inline server transfers are the only thing
	// in a step that can move a pod's demand or capacity. stepping and
	// utilsOK say whether the cache is in use and filled.
	utils    []float64
	stepping bool
	utilsOK  bool

	// Step scratch, reused so a step that issues no action allocates
	// nothing.
	ripPods    []cluster.PodID   // inter-pod weights: each RIP's pod
	coldIdx    []int             // inter-pod weights: the cold RIPs
	appSums    []float64         // hottestApp: demand per app seen
	appSeen    []cluster.AppID   // hottestApp: the apps, parallel to appSums
	podVMs     []int             // elephant guard: VM count by PodID
	links      []netmodel.LinkID // VIP recycling: serving links
	dnsVIPs    []lbswitch.VIP    // VIP recycling: one app's DNS record
	dnsWeights []float64
}

func newGlobalManager(p *Platform) *GlobalManager {
	return &GlobalManager{
		p:       p,
		podSnap: make(map[cluster.PodID]float64),
	}
}

// podUtil returns the pod utilization the global manager acts on: the
// last snapshot cast over the control plane under the stale-snapshot
// regime (live state until the first snapshot lands), live state
// otherwise.
func (g *GlobalManager) podUtil(id cluster.PodID) float64 {
	if !g.stepping {
		return g.readPodUtil(id)
	}
	if !g.utilsOK {
		g.utils = g.utils[:0]
		for _, pod := range g.p.podOrder {
			g.utils = append(g.utils, g.readPodUtil(pod))
		}
		g.utilsOK = true
	}
	return g.utils[id]
}

// readPodUtil is podUtil without the step cache.
func (g *GlobalManager) readPodUtil(id cluster.PodID) float64 {
	if g.p.ctrl.Enabled() && g.p.Cfg.Ctrl.SnapshotEvery > 0 {
		if u, ok := g.podSnap[id]; ok {
			return u
		}
	}
	return g.p.pods[id].Utilization()
}

// Step runs one global control iteration. The knobs are tried
// cheapest-and-fastest first, matching the paper's agility observations:
// DNS exposure and weight changes act in seconds, VIP transfers need a
// drain, deployments take minutes, and server transfers require vacating
// machines.
func (g *GlobalManager) Step() {
	g.Steps++
	g.stepping, g.utilsOK = true, false
	cfg := &g.p.Cfg
	if cfg.Enabled(KnobSelectiveExposure) {
		g.balanceAccessLinks()
		if cfg.CostAwareExposure {
			g.costAwareExposure()
		}
		if cfg.RecycleUnusedVIPs {
			g.recycleUnusedVIPs()
		}
	}
	if cfg.Enabled(KnobVIPTransfer) {
		g.balanceSwitches()
	}
	if cfg.Enabled(KnobRIPWeights) {
		g.interPodWeights()
	}
	if cfg.Enabled(KnobAppDeployment) {
		g.deployToRelievePods()
		g.removeIdleInstances()
	}
	if cfg.Enabled(KnobServerTransfer) {
		g.transferServersToRelievePods()
	}
	g.stepping, g.utilsOK = false, false
	g.guardElephantPods()
}

// ---- Knob A: selective VIP exposure -------------------------------------

// balanceAccessLinks relieves overloaded access links by shifting DNS
// exposure weight from VIPs advertised on hot links to the same
// applications' VIPs on cold links. Routing is untouched — zero route
// updates — and relief begins as soon as the DNS change propagates.
func (g *GlobalManager) balanceAccessLinks() {
	cfg := &g.p.Cfg
	for _, linkID := range g.p.Net.OverloadedLinks(cfg.LinkOverloadUtil) {
		link := g.p.Net.Link(linkID)
		// How much traffic must leave the link to reach the target?
		excess := link.LoadMbps() - cfg.LinkOverloadUtil*link.CapacityMbps
		if excess <= 0 {
			continue
		}
		// Hottest VIPs on the link first, ties in address order.
		vips := g.p.Net.VIPsOnLink(linkID)
		slices.SortStableFunc(vips, func(a, b ids.Index) int {
			ta, tb := g.p.Net.VIPTraffic(a), g.p.Net.VIPTraffic(b)
			if ta != tb {
				if ta > tb {
					return -1
				}
				return 1
			}
			return 0
		})
		for _, vi := range vips {
			if excess <= 0 {
				break
			}
			moved := g.shiftExposureOffLink(vi, linkID)
			excess -= moved
		}
	}
}

// shiftExposureOffLink reduces the DNS weight of vip (which rides the
// hot link) and raises the weights of the owning app's VIPs on links
// below the overload threshold. It returns the traffic expected to move
// off the hot link.
func (g *GlobalManager) shiftExposureOffLink(vi ids.Index, hot netmodel.LinkID) float64 {
	vip := g.p.Fabric.Addr(vi)
	home, ok := g.p.Fabric.Home(vi)
	if !ok {
		return 0
	}
	app, ok := g.p.Fabric.Switch(home).AppOf(vip)
	if !ok {
		return 0
	}
	// Find sibling VIPs of the app on non-overloaded links.
	dnsVIPs, weights, err := g.p.DNS.Weights(app)
	if err != nil {
		return 0
	}
	cfg := &g.p.Cfg
	var hotIdx = -1
	var coldIdx []int
	for i, v := range dnsVIPs {
		if v == vip {
			hotIdx = i
			continue
		}
		cold := true
		active := g.p.Net.ActiveLinks(g.p.handleOf(v))
		for _, l := range active {
			lk := g.p.Net.Link(l)
			if !lk.Serving() || lk.Utilization() > cfg.LinkOverloadUtil {
				cold = false
				break
			}
		}
		if cold && len(active) > 0 {
			coldIdx = append(coldIdx, i)
		}
	}
	if hotIdx < 0 || len(coldIdx) == 0 || weights[hotIdx] <= 0 {
		return 0
	}
	// Halve the hot VIP's weight, spreading the removed weight across
	// the cold VIPs. Repeated control iterations converge.
	delta := weights[hotIdx] / 2
	newHot := weights[hotIdx] - delta
	perCold := delta / float64(len(coldIdx))
	traffic := g.p.Net.VIPTraffic(vi)
	// The weight set travels as one message; the generation captured at
	// send time makes a reordered retry that arrives after some other
	// decision rewrote this app's record abort instead of clobbering it.
	// On an ideal bus the generation trivially matches and the guard is
	// free.
	var gen int64
	g.p.actuate(Action{
		Knob: KnobSelectiveExposure, Prio: viprip.PriorityNormal,
		Refs:     []trace.Ref{trace.VIP(vip), trace.App(app), trace.Link(hot)},
		Delay:    cfg.DNSUpdateLatency,
		Dispatch: func() { gen = g.p.DNS.Gen(app) },
		From:     ctrlplane.Global, To: ctrlplane.DNS, Name: "exposure-shift",
		Apply: func() {
			if err := g.p.DNS.SetWeightIfGen(app, vip, newHot, gen); err != nil {
				return
			}
			g.p.Cfg.Trace.Record(trace.EvUnexpose, newHot, delta,
				trace.VIP(vip), trace.App(app), trace.Link(hot))
			for _, i := range coldIdx {
				g.p.DNS.SetWeight(app, dnsVIPs[i], weights[i]+perCold)
				g.p.Cfg.Trace.Record(trace.EvExpose, weights[i]+perCold, perCold,
					trace.VIP(dnsVIPs[i]), trace.App(app))
			}
			g.ExposureChanges++
			g.p.Propagate()
		},
	})
	return traffic / 2
}

// costAwareExposure is the business-objective half of knob A: when no
// link is overloaded, shift DNS exposure from VIPs on expensive links
// toward the same applications' VIPs on cheaper links, without pushing
// any cheap link above CostShiftCeiling. One shift per step keeps the
// adjustment gentle.
func (g *GlobalManager) costAwareExposure() {
	cfg := &g.p.Cfg
	if len(g.p.Net.OverloadedLinks(cfg.LinkOverloadUtil)) > 0 {
		return // balance first, economize later
	}
	// Most expensive loaded link first.
	var hot *netmodel.Link
	for _, l := range g.p.Net.Links() {
		if l.LoadMbps() <= 0 {
			continue
		}
		if hot == nil || l.CostPerMbps > hot.CostPerMbps {
			hot = l
		}
	}
	if hot == nil {
		return
	}
	for _, vi := range g.p.Net.VIPsOnLink(hot.ID) {
		vip := g.p.Fabric.Addr(vi)
		home, ok := g.p.Fabric.Home(vi)
		if !ok {
			continue
		}
		app, ok := g.p.Fabric.Switch(home).AppOf(vip)
		if !ok {
			continue
		}
		dnsVIPs, weights, err := g.p.DNS.Weights(app)
		if err != nil {
			continue
		}
		hotIdx, cheapIdx := -1, -1
		for i, v := range dnsVIPs {
			if v == vip {
				hotIdx = i
				continue
			}
			for _, l := range g.p.Net.ActiveLinks(g.p.handleOf(v)) {
				link := g.p.Net.Link(l)
				if link.Serving() && link.CostPerMbps < hot.CostPerMbps && link.Utilization() < cfg.CostShiftCeiling {
					cheapIdx = i
				}
			}
		}
		if hotIdx < 0 || cheapIdx < 0 || weights[hotIdx] <= 0 {
			continue
		}
		delta := weights[hotIdx] / 2
		var gen int64
		g.p.actuate(Action{
			Knob: KnobSelectiveExposure, Prio: viprip.PriorityLow,
			Refs:     []trace.Ref{trace.VIP(vip), trace.App(app), trace.Link(hot.ID)},
			Delay:    cfg.DNSUpdateLatency,
			Dispatch: func() { gen = g.p.DNS.Gen(app) },
			From:     ctrlplane.Global, To: ctrlplane.DNS, Name: "cost-shift",
			Apply: func() {
				if err := g.p.DNS.SetWeightIfGen(app, dnsVIPs[hotIdx], weights[hotIdx]-delta, gen); err != nil {
					return
				}
				g.p.DNS.SetWeight(app, dnsVIPs[cheapIdx], weights[cheapIdx]+delta)
				g.p.Cfg.Trace.Record(trace.EvUnexpose, weights[hotIdx]-delta, delta,
					trace.VIP(dnsVIPs[hotIdx]), trace.App(app))
				g.p.Cfg.Trace.Record(trace.EvExpose, weights[cheapIdx]+delta, delta,
					trace.VIP(dnsVIPs[cheapIdx]), trace.App(app))
				g.ExposureChanges++
				g.p.Propagate()
			},
		})
		return // one shift per step
	}
}

// recycleUnusedVIPs re-advertises VIPs with no exposure and no traffic
// over the lightly loaded access links — the paper's periodic route
// hygiene, which keeps route updates decoupled from load-balancing
// decisions. Recycled VIPs are spread round-robin over the lightly
// loaded half of the links (the paper says "links", plural: parking
// every unused VIP on one link would overload it the moment they are
// re-exposed).
func (g *GlobalManager) recycleUnusedVIPs() {
	// Serving links sorted by utilization; targets = the lighter half.
	healthy := g.links[:0]
	for i := 0; i < g.p.Net.NumLinks(); i++ {
		if l := g.p.Net.Link(netmodel.LinkID(i)); l.Serving() {
			healthy = append(healthy, l.ID)
		}
	}
	g.links = healthy
	if len(healthy) == 0 {
		return
	}
	slices.SortFunc(healthy, func(a, b netmodel.LinkID) int {
		ua := g.p.Net.Link(a).Utilization()
		ub := g.p.Net.Link(b).Utilization()
		if ua != ub {
			if ua < ub {
				return -1
			}
			return 1
		}
		return cmp.Compare(a, b)
	})
	targets := healthy[:(len(healthy)+1)/2]
	rr := 0
	for a := 0; a < g.p.Cluster.NumApps(); a++ {
		app := cluster.AppID(a)
		if g.p.Cluster.App(app) == nil {
			continue
		}
		vips, weights, err := g.p.DNS.AppendWeights(app, g.dnsVIPs[:0], g.dnsWeights[:0])
		g.dnsVIPs, g.dnsWeights = vips, weights
		if err != nil {
			continue
		}
		for i, vip := range vips {
			vi := g.p.handleOf(vip)
			if weights[i] != 0 || g.p.Net.VIPTraffic(vi) > 0 {
				continue
			}
			if g.p.claims.held(drainClaim(vi)) {
				continue // drains manage their own exposure
			}
			active := g.p.Net.ActiveLinks(vi)
			if len(active) == 1 && slices.Contains(targets, active[0]) {
				continue // already parked on a light link
			}
			target := targets[rr%len(targets)]
			rr++
			for _, l := range active {
				g.p.Net.Withdraw(vi, l)
			}
			if err := g.p.Net.Advertise(vi, target, false); err == nil {
				g.VIPRecycles++
			}
		}
	}
}

// ---- Knob B: dynamic VIP transfer ----------------------------------------

// balanceSwitches relieves LB switches near their throughput limit by
// transferring their hottest VIPs to underloaded switches. Per the
// paper, the VIP is first drained via selective exposure (weight 0), and
// the internal transfer happens once ongoing sessions have paused — no
// access-router involvement.
func (g *GlobalManager) balanceSwitches() {
	cfg := &g.p.Cfg
	for i := 0; i < g.p.Fabric.NumSwitches(); i++ {
		sw := g.p.Fabric.Switch(lbswitch.SwitchID(i))
		if !sw.Serving() || sw.Utilization() <= cfg.SwitchOverloadUtil {
			continue
		}
		excess := sw.ThroughputMbps() - cfg.SwitchOverloadUtil*sw.Limits.ThroughputMbps
		for _, vip := range sw.SortVIPsByLoad() {
			if excess <= 0 {
				break
			}
			if g.p.claims.held(drainClaim(g.p.handleOf(vip))) {
				continue
			}
			dst := g.pickTransferTarget(sw, vip)
			if dst == nil {
				continue
			}
			excess -= sw.VIPLoad(vip)
			g.startDrainAndTransfer(vip, dst.ID)
		}
	}
}

// pickTransferTarget selects a switch that can accept vip (VIP slot,
// RIP slots, projected throughput below threshold) via the placement
// policy; the default greedy takes the least-utilized, exactly as the
// historical inline scan did.
func (g *GlobalManager) pickTransferTarget(from *lbswitch.Switch, vip lbswitch.VIP) *lbswitch.Switch {
	nRIPs, load := from.NumRIPsOf(vip), from.VIPLoad(vip)
	cfg := &g.p.Cfg
	g.swCand = g.swCand[:0]
	for _, sw := range g.p.Fabric.Switches() {
		if sw.ID == from.ID || !sw.Serving() {
			continue
		}
		if sw.NumVIPs() >= sw.Limits.MaxVIPs || sw.NumRIPs()+nRIPs > sw.Limits.MaxRIPs {
			continue
		}
		if sw.Limits.ThroughputMbps > 0 &&
			(sw.ThroughputMbps()+load)/sw.Limits.ThroughputMbps > cfg.SwitchOverloadUtil {
			continue
		}
		g.swCand = append(g.swCand, sw)
	}
	if len(g.swCand) == 0 {
		return nil
	}
	cands := g.swCand
	idx := g.p.pol.Placement.TransferTarget(policy.Decision{
		Actor: hashVIP(vip),
		N:     len(cands),
		Key:   func(i int) uint64 { return uint64(cands[i].ID) },
		Load:  func(i int) float64 { return cands[i].Utilization() },
	})
	if idx < 0 || idx >= len(cands) {
		return nil
	}
	return cands[idx]
}

// hashVIP folds a VIP address into the stable actor key hash policies
// expect (FNV-1a; addresses are unique for a VIP's lifetime). It hashes
// the dotted quad, so every hash-keyed policy decision is the one it
// was when addresses were strings.
func hashVIP(vip lbswitch.VIP) uint64 {
	var buf [15]byte
	text, _ := vip.AppendText(buf[:0])
	h := uint64(14695981039346656037)
	for _, c := range text {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// startDrainAndTransfer runs the Section IV-B protocol: stop exposing
// the VIP, wait out the DNS TTL plus a margin, then transfer. If
// sessions still linger (TTL violators), retry once more and finally
// force the transfer, counting the broken connections.
func (g *GlobalManager) startDrainAndTransfer(vip lbswitch.VIP, dst lbswitch.SwitchID) {
	home, ok := g.p.Fabric.HomeOf(vip)
	if !ok {
		return
	}
	app, ok := g.p.Fabric.Switch(home).AppOf(vip)
	if !ok {
		return
	}
	// The drain spans several actions, so it holds its claim itself:
	// while held, balanceSwitches picks no second drain for the VIP and
	// exposure reconciliation leaves its DNS weight alone.
	key := drainClaim(g.p.handleOf(vip))
	token := g.p.claims.claim(key)
	// mine reports whether this drain instance still owns the VIP. Every
	// asynchronous completion below checks it first: over a faulty
	// control plane a step's message can settle twice (at-least-once:
	// a delivered transfer whose acks were all lost still dead-letters),
	// and without the token a stale completion would re-expose the VIP
	// (violating I1.EXPOSED_HOMED if it lost its home) or double-count
	// VIPTransfers/DrainForceBreaks (violating I4.BROKEN_ACCOUNTED —
	// every broken connection accounted exactly once).
	mine := func() bool { return g.p.claims.heldBy(key, token) }
	release := func() { g.p.claims.release(key, token) }
	vips, ws, err := g.p.DNS.Weights(app)
	if err != nil {
		release()
		return
	}
	restoreWeight := 1.0
	for i, v := range vips {
		if v == vip {
			restoreWeight = ws[i]
		}
	}
	cfg := &g.p.Cfg
	// The whole drain protocol — hide, TTL wait, transfer attempts with
	// retries, forced break accounting, restore — is one decision: every
	// event it records, across every asynchronous hop, carries its cause.
	var cid uint64
	restore := func() {
		g.p.send(ctrlplane.Global, ctrlplane.DNS, "drain-restore", func() {
			if !mine() {
				return
			}
			// The VIP can lose its fabric home mid-drain (a detected switch
			// failure with no healthy target drops it outright). Restoring
			// its DNS weight then would expose a dead address
			// (I1.EXPOSED_HOMED); keep it at zero until a rehome reconciles
			// exposure.
			restored := 0.0
			if _, homed := g.p.Fabric.HomeOf(vip); homed {
				restored = restoreWeight
			}
			g.p.DNS.SetWeight(app, vip, restored)
			g.p.Cfg.Trace.Record(trace.EvDrainFinish, restored, 0,
				trace.VIP(vip), trace.App(app))
			release()
			g.p.Propagate()
		}, release) // restore undeliverable: the VIP stays hidden until reconciliation
	}
	var attempt func(retriesLeft int)
	attempt = func(retriesLeft int) {
		if !mine() {
			return
		}
		force := retriesLeft == 0
		if force && g.p.Cfg.Trace.Enabled() {
			conns := 0
			if h, ok := g.p.Fabric.HomeOf(vip); ok {
				conns = g.p.Fabric.Switch(h).VIPConns(vip)
			}
			g.p.Cfg.Trace.Record(trace.EvDrainForce, float64(conns), 0,
				trace.VIP(vip), trace.SwitchRef(dst))
		}
		// On a serialized pipeline the transfer waits its turn; broken
		// connections are counted at apply time inside the VIP/RIP manager.
		g.p.request(ctrlplane.Global, "vip-transfer", &viprip.Request{
			Op: viprip.OpTransferVIP, App: app, Priority: viprip.PriorityHigh,
			VIP: vip, Dst: dst, Force: force,
		}, func(err error, broken int64) {
			if !mine() {
				return
			}
			switch {
			case err == nil:
				g.VIPTransfers++
				g.DrainForceBreaks += broken
				g.p.Cfg.Causal.AddBroken(cid, broken)
				restore()
			case errors.Is(err, lbswitch.ErrActiveConns) && retriesLeft > 0:
				g.p.Cfg.Trace.Record(trace.EvDrainRetry, float64(retriesLeft), cfg.DrainMargin,
					trace.VIP(vip), trace.SwitchRef(dst))
				g.p.later(cid, cfg.DrainMargin, func() { attempt(retriesLeft - 1) })
			default:
				g.FailedTransfers++
				restore()
			}
		})
	}
	cid = g.p.actuate(Action{
		Knob: KnobVIPTransfer, Prio: viprip.PriorityHigh,
		Refs:  []trace.Ref{trace.VIP(vip), trace.SwitchRef(home), trace.SwitchRef(dst)},
		Delay: cfg.DNSUpdateLatency,
		From:  ctrlplane.Global, To: ctrlplane.DNS, Name: "drain-hide",
		Apply: func() {
			if !mine() {
				return
			}
			if err := g.p.DNS.SetWeight(app, vip, 0); err != nil {
				release()
				return
			}
			g.p.Cfg.Trace.Record(trace.EvDrainStart, restoreWeight, g.p.DNS.TTL()+cfg.DrainMargin,
				trace.VIP(vip), trace.SwitchRef(home), trace.SwitchRef(dst))
			g.p.Propagate()
			g.p.later(cid, g.p.DNS.TTL()+cfg.DrainMargin, func() { attempt(2) })
		},
		// The hide never reached DNS: the VIP was never drained.
		OnDead: release,
	})
}

// ---- Knob F (inter-pod): RIP weight adjustment ---------------------------

// interPodWeights shifts LB weight between pods covered by a common VIP:
// weight moves from RIPs in overloaded pods to RIPs in underloaded pods,
// preserving the VIP's total weight (so only the split between pods
// changes). This is the fastest inter-pod knob — just a switch
// reconfiguration.
//
// A VIP is acted on only when its RIPs span an overloaded pod and an
// underloaded one, so with no pod of either kind the scan would act on
// nothing and is skipped. Otherwise it walks every serving switch's
// groups by entry, in the switch-by-switch order every actuation's
// CauseID depends on.
func (g *GlobalManager) interPodWeights() {
	cfg := &g.p.Cfg
	anyHot, anyCold := false, false
	for _, id := range g.p.podOrder {
		u := g.podUtil(id)
		anyHot = anyHot || u > cfg.PodOverloadUtil
		anyCold = anyCold || u < cfg.PodUnderloadUtil
	}
	if !anyHot || !anyCold {
		return
	}
	for i := 0; i < g.p.Fabric.NumSwitches(); i++ {
		sw := g.p.Fabric.Switch(lbswitch.SwitchID(i))
		if !sw.Serving() {
			continue
		}
		for j := 0; j < sw.NumVIPs(); j++ {
			grp := sw.GroupAt(j)
			g.p.work.interPodVisits++
			if grp.Len() < 2 {
				continue
			}
			// Partition the VIP's RIPs by pod.
			podOf := g.ripPods[:0]
			hasHot, hasCold := false, false
			for k := 0; k < grp.Len(); k++ {
				pod := cluster.NoPod
				if vm := g.p.Cluster.VM(vmOfTag(grp.Tag(k))); vm != nil {
					if srv := g.p.Cluster.Server(vm.Server); srv != nil {
						pod = srv.Pod
					}
				}
				podOf = append(podOf, pod)
				if pod == cluster.NoPod {
					continue
				}
				if g.podUtil(pod) > cfg.PodOverloadUtil {
					hasHot = true
				}
				if g.podUtil(pod) < cfg.PodUnderloadUtil {
					hasCold = true
				}
			}
			g.ripPods = podOf
			if !hasHot || !hasCold {
				continue
			}
			newWeights := grp.AppendWeights(make([]float64, 0, grp.Len()))
			var moved float64
			coldIdx := g.coldIdx[:0]
			for k, pod := range podOf {
				if pod == cluster.NoPod {
					continue
				}
				if g.podUtil(pod) > cfg.PodOverloadUtil {
					d := grp.Weight(k) * 0.25
					newWeights[k] -= d
					moved += d
				} else if g.podUtil(pod) < cfg.PodUnderloadUtil {
					coldIdx = append(coldIdx, k)
				}
			}
			g.coldIdx = coldIdx
			if moved <= 0 || len(coldIdx) == 0 {
				continue
			}
			per := moved / float64(len(coldIdx))
			for _, k := range coldIdx {
				newWeights[k] += per
			}
			vip, nCold := grp.VIP(), len(coldIdx)
			g.p.actuate(Action{
				Knob: KnobRIPWeights, Prio: viprip.PriorityNormal,
				Refs:  []trace.Ref{trace.VIP(vip), trace.SwitchRef(sw.ID)},
				Delay: cfg.SwitchReconfigLatency,
				From:  ctrlplane.Global, To: ctrlplane.CSM, Name: "inter-pod-weights",
				Request: &viprip.Request{
					Op: viprip.OpAdjustWeights, App: grp.App(), Priority: viprip.PriorityNormal,
					VIP: vip, Weights: newWeights,
					OnDone: func(r *viprip.Request) {
						if r.Err != nil {
							return
						}
						g.p.Cfg.Trace.Record(trace.EvWeightShift, moved, float64(nCold),
							trace.VIP(vip), trace.SwitchRef(sw.ID))
						g.InterPodAdjusts++
						g.p.Propagate()
					},
				},
			})
		}
	}
}

// ---- Knob D: dynamic application deployment ------------------------------

// deployToRelievePods replicates the hottest application of each
// overloaded pod into an underloaded pod. Deployment is the slow knob —
// VM provisioning takes minutes — so at most one deployment per hot pod
// per step keeps the "number of application deployments ... minimized".
func (g *GlobalManager) deployToRelievePods() {
	cfg := &g.p.Cfg
	for _, podID := range g.p.podOrder {
		if g.podUtil(podID) <= cfg.PodOverloadUtil {
			continue
		}
		app, ok := g.hottestApp(podID)
		if !ok || g.p.claims.held(claimOf(globalOwner, claimDeploy, int(app))) {
			continue
		}
		target, ok := g.coldestPodWithRoom(uint64(app), podID, g.p.appSlice[app])
		if !ok {
			continue
		}
		vip := g.hottestVIPOfApp(app, podID)
		g.p.actuate(Action{
			Knob: KnobAppDeployment, Prio: viprip.PriorityNormal,
			Refs:  []trace.Ref{trace.App(app), trace.Pod(target), trace.VIP(vip)},
			Delay: cfg.VMDeployLatency,
			Claim: claimOf(globalOwner, claimDeploy, int(app)),
			From:  ctrlplane.Global, To: ctrlplane.Pod(int(target)), Name: "deploy",
			Apply: func() {
				if vm, err := g.p.DeployInstanceFor(app, target, vip); err == nil {
					g.p.Cfg.Trace.Record(trace.EvDeploy, float64(vm.ID), 0,
						trace.App(app), trace.Pod(target), trace.VIP(vip))
					g.Deployments++
					g.p.Propagate()
				}
			},
		})
	}
}

// removeIdleInstances prunes instances of under-utilized applications
// that cover many pods: a VM serving (almost) nothing whose application
// is fully satisfied is removed, freeing capacity and shrinking pod
// managers' decision spaces.
func (g *GlobalManager) removeIdleInstances() {
	for i := 0; i < g.p.Cluster.NumApps(); i++ {
		app := cluster.AppID(i)
		a := g.p.Cluster.App(app)
		if a == nil || a.NumInstances() <= g.p.Cfg.VIPsPerApp { // keep a floor of instances
			continue
		}
		// The first idle running instance, if any, looked for before
		// the satisfaction check: both are pure, and the search is the
		// cheaper one.
		idle := cluster.VMID(-1)
		for _, vmID := range a.VMIDsView() {
			if vm := g.p.Cluster.VM(vmID); vm.State == cluster.VMRunning && vm.Demand.CPU < 1e-6 {
				idle = vmID
				break
			}
		}
		if idle < 0 || g.p.AppSatisfaction(app) < 0.999 {
			continue
		}
		g.p.actuate(Action{ // at most one removal per app per step
			Knob: KnobAppDeployment, Prio: viprip.PriorityLow,
			Refs:  []trace.Ref{trace.App(app), trace.VM(idle)},
			Delay: g.p.Cfg.SwitchReconfigLatency,
			From:  ctrlplane.Global, To: ctrlplane.CSM, Name: "remove-instance",
			Apply: func() {
				if g.p.Cluster.VM(idle) == nil {
					return
				}
				if err := g.p.RemoveInstance(idle); err == nil {
					g.Removals++
					g.p.Propagate()
				}
			},
		})
	}
}

// ---- Knob C: server transfer between pods --------------------------------

// transferServersToRelievePods vacates a server in an underloaded donor
// pod (migrating its VMs to the donor's other servers) and hands it to
// the overloaded pod.
func (g *GlobalManager) transferServersToRelievePods() {
	cfg := &g.p.Cfg
	for _, podID := range g.p.podOrder {
		if g.podUtil(podID) <= cfg.PodOverloadUtil {
			continue
		}
		donor, ok := g.pickDonorPod(podID)
		if !ok {
			continue
		}
		srv, ok := g.pickServerToVacate(donor)
		if !ok {
			continue
		}
		g.vacateAndTransfer(srv, donor, podID)
	}
}

// pickDonorPod selects a pod below the underload threshold (other
// than the recipient) to donate a server, via the steering policy.
func (g *GlobalManager) pickDonorPod(recipient cluster.PodID) (cluster.PodID, bool) {
	cfg := &g.p.Cfg
	g.podCand, g.podLoad = g.podCand[:0], g.podLoad[:0]
	for _, id := range g.p.podOrder {
		if id == recipient {
			continue
		}
		if u := g.podUtil(id); u < cfg.PodUnderloadUtil {
			g.podCand = append(g.podCand, id)
			g.podLoad = append(g.podLoad, u)
		}
	}
	return g.steerPod(uint64(recipient), g.p.pol.Steering.DonorPod)
}

// pickServerToVacate chooses the donor server with the fewest VMs whose
// VMs can all be rehomed within the donor pod.
func (g *GlobalManager) pickServerToVacate(donor cluster.PodID) (cluster.ServerID, bool) {
	pd := g.p.Cluster.Pod(donor)
	if pd == nil || pd.NumServers() <= 1 {
		return 0, false
	}
	best := cluster.ServerID(-1)
	bestVMs := 0
	for _, sid := range pd.ServerIDs() {
		if g.p.claims.held(claimOf(globalOwner, claimServer, int(sid))) {
			continue
		}
		srv := g.p.Cluster.Server(sid)
		if !srv.Serving() {
			continue
		}
		if best == cluster.ServerID(-1) || srv.NumVMs() < bestVMs {
			best, bestVMs = sid, srv.NumVMs()
		}
	}
	if best == cluster.ServerID(-1) {
		return 0, false
	}
	return best, true
}

// vacateAndTransfer migrates every VM off the server (within the donor
// pod), then transfers the empty server to the recipient pod. If any VM
// cannot be rehomed the transfer is abandoned (already-moved VMs stay at
// their new homes; they remain inside the donor pod).
func (g *GlobalManager) vacateAndTransfer(srv cluster.ServerID, donor, recipient cluster.PodID) {
	server := g.p.Cluster.Server(srv)
	nVMs := server.NumVMs()
	g.p.actuate(Action{
		Knob: KnobServerTransfer, Prio: viprip.PriorityNormal,
		Refs:  []trace.Ref{trace.Server(srv), trace.Pod(donor), trace.Pod(recipient)},
		Delay: g.p.Cfg.VacateLatencyPerVM*float64(nVMs) + g.p.Cfg.VMMigrateLatency,
		Claim: claimOf(globalOwner, claimServer, int(srv)),
		From:  ctrlplane.Global, To: ctrlplane.Pod(int(donor)), Name: "server-transfer",
		Apply: func() {
			server := g.p.Cluster.Server(srv)
			if server == nil || server.Pod != donor {
				return
			}
			// A copy, not the view: each MigrateVM removes the VM
			// from the server's list.
			for _, vmID := range server.VMIDs() {
				vm := g.p.Cluster.VM(vmID)
				dst := g.p.emptiestServer(donor, srv, vm.Slice)
				if dst == nil {
					return // cannot fully vacate; abandon
				}
				if err := g.p.Cluster.MigrateVM(vmID, dst.ID); err != nil {
					return
				}
			}
			if err := g.p.Cluster.TransferServer(srv, recipient); err == nil {
				g.p.Cfg.Trace.Record(trace.EvServerTransfer, float64(nVMs), 0,
					trace.Server(srv), trace.Pod(donor), trace.Pod(recipient))
				g.ServerTransfers++
				g.p.Propagate()
			}
		},
	})
}

// ---- Elephant-pod guard ---------------------------------------------------

// guardElephantPods keeps every pod's size within the configured limits
// by transferring servers *along with their deployed instances* out of
// oversized pods into the smallest pods — the Section IV-C/D mitigation
// that protects pod managers' decision time.
func (g *GlobalManager) guardElephantPods() {
	cfg := &g.p.Cfg
	// VM counts by pod, kept current across the inline transfers below:
	// a transfer moves its server's VMs with it.
	counts := g.podVMs[:0]
	for _, id := range g.p.podOrder {
		counts = append(counts, g.p.Cluster.PodNumVMs(id))
	}
	g.podVMs = counts
	for _, podID := range g.p.podOrder {
		pd := g.p.Cluster.Pod(podID)
		for pd.NumServers() > cfg.MaxPodServers || counts[podID] > cfg.MaxPodVMs {
			srvs := pd.Servers()
			if len(srvs) <= 1 {
				break
			}
			// Move the server with the most VMs (shrinks the VM count
			// fastest) — with its instances — but only to a pod that
			// stays within its own limits after the move; otherwise the
			// guard would just ping-pong the overflow.
			best := srvs[0].ID
			bestVMs := -1
			for _, srv := range srvs {
				if !srv.Serving() {
					continue
				}
				if n := srv.NumVMs(); n > bestVMs {
					best, bestVMs = srv.ID, n
				}
			}
			if bestVMs < 0 {
				break
			}
			target := g.elephantTarget(podID, bestVMs)
			if target == cluster.NoPod {
				break
			}
			if !g.moveElephantServer(best, bestVMs, podID, target) {
				break
			}
			counts[podID] -= bestVMs
			counts[target] += bestVMs
			g.ElephantMoves++
		}
	}
	g.p.Propagate()
}

// moveElephantServer transfers server srv, carrying nVMs VMs, from pod
// to target inline, and reports whether it moved. It is a method of its
// own so that the guard's scan captures nothing in a closure: a
// captured loop variable escapes to the heap on every iteration.
func (g *GlobalManager) moveElephantServer(srv cluster.ServerID, nVMs int, pod, target cluster.PodID) bool {
	moved := false
	g.p.actuate(Action{
		Knob: KnobServerTransfer, Prio: viprip.PriorityHigh,
		Refs:   []trace.Ref{trace.Server(srv), trace.Pod(pod), trace.Pod(target)},
		Inline: true,
		Apply: func() {
			if g.p.Cluster.TransferServer(srv, target) != nil {
				return
			}
			g.p.Cfg.Trace.Record(trace.EvServerTransfer, float64(nVMs), 1,
				trace.Server(srv), trace.Pod(pod), trace.Pod(target))
			moved = true
		},
	})
	return moved
}

// elephantTarget returns the smallest pod (by servers) that can accept
// one more server carrying movedVMs VMs without itself exceeding limits.
// It reads the guard's per-pod VM counts.
func (g *GlobalManager) elephantTarget(exclude cluster.PodID, movedVMs int) cluster.PodID {
	cfg := &g.p.Cfg
	best := cluster.NoPod
	bestN := 0
	for _, id := range g.p.podOrder {
		if id == exclude {
			continue
		}
		pd := g.p.Cluster.Pod(id)
		if pd.NumServers()+1 > cfg.MaxPodServers {
			continue
		}
		if g.podVMs[id]+movedVMs > cfg.MaxPodVMs {
			continue
		}
		if n := pd.NumServers(); best == cluster.NoPod || n < bestN {
			best, bestN = id, n
		}
	}
	return best
}

// hottestVIPOfApp returns the VIP served by the app's worst-overloaded
// VM in the pod, so a relieving deployment adds capacity where the
// demand actually arrives. Empty when nothing is overloaded.
func (g *GlobalManager) hottestVIPOfApp(app cluster.AppID, pod cluster.PodID) lbswitch.VIP {
	var vip lbswitch.VIP
	worst := 1.0
	for _, vmID := range g.p.Cluster.AppVMsInPod(app, pod) {
		vm := g.p.Cluster.VM(vmID)
		if ov := vm.Overload(); ov > worst {
			if v, ok := g.p.vipOfVM(vmID); ok {
				vip, worst = v, ov
			}
		}
	}
	return vip
}

// hottestApp returns the application with the highest CPU demand inside
// the pod.
func (g *GlobalManager) hottestApp(pod cluster.PodID) (cluster.AppID, bool) {
	pd := g.p.Cluster.Pod(pod)
	if pd == nil {
		return 0, false
	}
	// Demand per app, summed in server then VM order; the platform's
	// app stamp table holds each app's position in the sums.
	sums, apps := g.appSums[:0], g.appSeen[:0]
	stamps := &g.p.appStamp
	stamps.begin()
	for _, srv := range pd.Servers() {
		for _, vmID := range srv.VMIDsView() {
			vm := g.p.Cluster.VM(vmID)
			at, first := stamps.mark(int(vm.App))
			if first {
				*at = int32(len(sums))
				sums, apps = append(sums, 0), append(apps, vm.App)
			}
			sums[*at] += vm.Demand.CPU
		}
	}
	g.appSums, g.appSeen = sums, apps
	best := cluster.AppID(-1)
	var bestD float64
	for i, app := range apps {
		if d := sums[i]; best == cluster.AppID(-1) || d > bestD || (d == bestD && app < best) {
			best, bestD = app, d
		}
	}
	return best, best != cluster.AppID(-1)
}

// coldestPodWithRoom selects a pod (≠ exclude) below the underload
// threshold with room for slice, via the steering policy — the
// default greedy takes the least-utilized, as the historical scan did.
// The underload threshold and the room check are feasibility, not
// preference, so they stay here for every policy.
func (g *GlobalManager) coldestPodWithRoom(actor uint64, exclude cluster.PodID, slice cluster.Resources) (cluster.PodID, bool) {
	cfg := &g.p.Cfg
	g.podCand, g.podLoad = g.podCand[:0], g.podLoad[:0]
	for _, id := range g.p.podOrder {
		if id == exclude {
			continue
		}
		if g.p.emptiestServer(id, noServer, slice) == nil {
			continue
		}
		if u := g.podUtil(id); u < cfg.PodUnderloadUtil {
			g.podCand = append(g.podCand, id)
			g.podLoad = append(g.podLoad, u)
		}
	}
	return g.steerPod(actor, g.p.pol.Steering.DeployPod)
}

// steerPod runs one pod-selection decision over the candidate scratch.
func (g *GlobalManager) steerPod(actor uint64, site func(policy.Decision) int) (cluster.PodID, bool) {
	if len(g.podCand) == 0 {
		return cluster.NoPod, false
	}
	cands, loads := g.podCand, g.podLoad
	idx := site(policy.Decision{
		Actor: actor,
		N:     len(cands),
		Key:   func(i int) uint64 { return uint64(cands[i]) },
		Load:  func(i int) float64 { return loads[i] },
	})
	if idx < 0 || idx >= len(cands) {
		return cluster.NoPod, false
	}
	return cands[idx], true
}
