package viprip

import (
	"cmp"
	"errors"
	"fmt"
	"math"

	"megadc/internal/cluster"
	"megadc/internal/lbswitch"
	"megadc/internal/policy"
	"megadc/internal/sim"
	"megadc/internal/trace"
)

// Priority orders requests in the serialized queue.
type Priority int

// Request priorities; higher values are processed first.
const (
	PriorityLow Priority = iota
	PriorityNormal
	PriorityHigh
)

// Errors returned by the manager.
var (
	// ErrNoSwitch means no switch can accept the requested configuration.
	ErrNoSwitch = errors.New("viprip: no switch with spare capacity")
	// ErrNoVIPForApp means a RIP request arrived for an app with no VIPs.
	ErrNoVIPForApp = errors.New("viprip: application has no VIPs configured")
	// ErrBadWeight rejects negative, zero, or non-finite RIP weights
	// before they can reach switch weight sums and DNS shares. NaN slips
	// through ordered comparisons (NaN < 0 is false), so the checks here
	// must be explicit.
	ErrBadWeight = errors.New("viprip: weight must be positive and finite")
	// ErrSwitchFailedMidFlight marks a serialized request whose target
	// switch went down while the request occupied the pipeline and stayed
	// down through every resubmission (maxRequeues).
	ErrSwitchFailedMidFlight = errors.New("viprip: switch failed while the request was in service")
)

// maxRequeues bounds how often a serialized request whose switch failed
// in service is resubmitted before it fails with
// ErrSwitchFailedMidFlight. Each resubmission takes a fresh seq, so the
// retry goes to the back of its priority class (requestOrder) — it must
// not jump ahead of work that queued while it was in flight.
const maxRequeues = 3

// validWeight mirrors the switch-level rule: positive and finite.
func validWeight(w float64) bool {
	return w > 0 && !math.IsInf(w, 0) && !math.IsNaN(w)
}

// Manager is the serialized VIP/RIP configuration authority.
type Manager struct {
	fabric  *lbswitch.Fabric
	vipPool *IPPool
	ripPool *IPPool

	// placement is the pluggable strategy behind every switch/VIP
	// choice (DESIGN.md §15). The default is the extracted greedy,
	// byte-identical to the historical inline scans.
	placement policy.Placement
	// swCand/vipCand are scratch buffers for per-decision candidate
	// lists, reused so policy decisions stay allocation-light.
	swCand  []*lbswitch.Switch
	vipCand []int

	queue     []*Request
	seq       int64
	Processed int64
	// Requeues counts serialized requests resubmitted because their
	// switch failed while they were in service (E15's churn pressure made
	// visible; see pump).
	Requeues int64

	// Serialized mode (StartSerialized): the engine-driven pump that
	// models the paper's single slow CSM configuration pipeline.
	eng         *sim.Engine
	serviceTime float64
	inflight    *Request
	finish      func() // completes inflight; bound once by StartSerialized

	tracer *trace.Recorder
}

// SetTracer attaches the flight recorder: every request's queue →
// process → done transition and every direct configuration operation is
// recorded. A nil recorder disables tracing.
func (m *Manager) SetTracer(r *trace.Recorder) { m.tracer = r }

// Request is one (re)configuration request: applied at once with Do, or
// queued with Submit for the serialized pipeline (StartSerialized).
// Result and Err are filled when the request is applied.
type Request struct {
	Op       Op
	App      cluster.AppID
	Priority Priority
	VIP      lbswitch.VIP      // DelVIP/AdjustWeights/TransferVIP: which VIP; AddRIP: optional preferred VIP
	RIP      lbswitch.RIP      // AddRIP/DelRIP
	Weight   float64           // AddRIP
	Weights  []float64         // AdjustWeights
	Dst      lbswitch.SwitchID // TransferVIP
	Force    bool              // TransferVIP

	// OnDone, when non-nil, runs after the request has been applied
	// (with Result and Err filled). In serialized mode this is how
	// callers continue a protocol across the asynchronous completion
	// (e.g. the drain's retry ladder).
	OnDone func(*Request)

	// Cause is the decision CauseID this request descends from
	// (DESIGN.md §16). Submit captures the recorder's current cause
	// scope when it is zero; the serialized pump restores it around
	// processing so the request's apply-time events (fabric effects,
	// OnDone continuations) inherit it — across requeues too, since a
	// resubmitted request keeps its Cause.
	Cause uint64

	seq      int64
	requeues int // resubmissions after a mid-flight switch failure
	Result   Result
	Err      error
	Done     bool
}

// Op is the request operation type.
type Op int

// Request operations.
const (
	OpAddVIP Op = iota
	OpDelVIP
	OpAddRIP
	OpDelRIP
	OpAdjustWeights
	OpTransferVIP
)

// Result carries the outcome of a processed request.
type Result struct {
	VIP    lbswitch.VIP
	Switch lbswitch.SwitchID
	Broken int64 // TransferVIP: connections broken by a forced transfer
}

// NewManager creates a manager over the fabric with the given IP pools
// and the default greedy placement.
func NewManager(fabric *lbswitch.Fabric, vipPool, ripPool *IPPool) *Manager {
	return &Manager{
		fabric:    fabric,
		vipPool:   vipPool,
		ripPool:   ripPool,
		placement: policy.NewGreedy(nil),
	}
}

// Fabric returns the managed switch fabric.
func (m *Manager) Fabric() *lbswitch.Fabric { return m.fabric }

// SetPlacement swaps the pluggable placement strategy; nil restores
// the default greedy.
func (m *Manager) SetPlacement(p policy.Placement) {
	if p == nil {
		p = policy.NewGreedy(nil)
	}
	m.placement = p
}

// Placement returns the active placement strategy.
func (m *Manager) Placement() policy.Placement { return m.placement }

// AllocRIP hands out a fresh RIP address for a new VM instance.
func (m *Manager) AllocRIP() (lbswitch.RIP, error) { return m.ripPool.Alloc() }

// AllocRIPs hands out n fresh RIP addresses at once, first to first+n-1,
// for the paper-scale bulk loader (core's OnboardAppsBulk; see
// IPPool.AllocRange).
func (m *Manager) AllocRIPs(n int) (first lbswitch.RIP, err error) {
	if n < 0 || uint64(n) > math.MaxUint32 {
		return 0, fmt.Errorf("%w: %d addresses requested", ErrPoolExhausted, n)
	}
	return m.ripPool.AllocRange(uint32(n))
}

// FreeRIP returns a RIP address to the pool.
func (m *Manager) FreeRIP(rip lbswitch.RIP) error { return m.ripPool.Free(rip) }

// Submit enqueues a request for serialized processing. In serialized
// mode (StartSerialized) the pump starts immediately if the pipeline is
// idle; otherwise the request waits its priority turn.
func (m *Manager) Submit(r *Request) {
	r.seq = m.seq
	m.seq++
	if r.Cause == 0 {
		r.Cause = m.tracer.CurrentCause()
	}
	m.queue = append(m.queue, r)
	m.tracer.WithCause(r.Cause, func() { m.traceReq(trace.EvReqSubmit, r) })
	if m.eng != nil {
		m.pump()
	}
}

// Pending returns the number of queued, unprocessed requests (including
// the one occupying the serialized pipeline).
func (m *Manager) Pending() int {
	n := len(m.queue)
	if m.inflight != nil {
		n++
	}
	return n
}

// StartSerialized starts the paper's serialized control plane on eng:
// submitted requests, including any queued before the call, are popped
// one at a time, highest priority first (FIFO within a priority), and
// each occupies the single CSM configuration pipeline for serviceTime
// simulated seconds before its effect lands.
// Under churn the queue wait — not server capacity — is what bounds
// elasticity; the span layer measures exactly this gap (submit →
// process) per priority class.
func (m *Manager) StartSerialized(eng *sim.Engine, serviceTime float64) {
	if eng == nil {
		panic("viprip: StartSerialized(nil engine)")
	}
	if serviceTime < 0 {
		panic(fmt.Sprintf("viprip: negative service time %v", serviceTime))
	}
	m.eng, m.serviceTime, m.finish = eng, serviceTime, m.finishInflight
	m.pump()
}

// Serialized reports whether the manager runs the engine-driven pump.
func (m *Manager) Serialized() bool { return m.eng != nil }

// pump pops the best-ordered request and occupies the pipeline with it.
// The request's effect (and its OnDone continuation) lands serviceTime
// later; completion re-pumps, so the pipeline never idles while work is
// queued.
func (m *Manager) pump() {
	if m.inflight != nil || len(m.queue) == 0 {
		return
	}
	best := 0
	for i := 1; i < len(m.queue); i++ {
		if requestOrder(m.queue[i], m.queue[best]) < 0 {
			best = i
		}
	}
	r := m.queue[best]
	m.queue = append(m.queue[:best], m.queue[best+1:]...)
	m.inflight = r
	m.tracer.WithCause(r.Cause, func() { m.traceReq(trace.EvReqProcess, r) })
	m.eng.After(m.serviceTime, m.finish)
}

// finishInflight runs when the in-service request's service time has
// elapsed: it frees the pipeline, completes the request, and re-pumps.
// Completion runs serviceTime after the decision that submitted the
// request returned, so it restores the request's CauseID for its
// apply-time events (fabric effects, OnDone continuations).
func (m *Manager) finishInflight() {
	r := m.inflight
	m.inflight = nil
	m.tracer.WithCause(r.Cause, func() { m.complete(r) })
	m.pump()
}

// complete applies the in-service request when the pipeline's service
// time elapses and marks it done. The pipeline's switch can fail while
// the request is in service. The request must not vanish: it is
// resubmitted (back of its priority class — a fresh seq keeps
// requestOrder honest) up to maxRequeues times, then surfaces a typed
// error.
func (m *Manager) complete(r *Request) {
	if !m.switchFailedMidFlight(r) {
		m.exec(r)
	} else if r.requeues < maxRequeues {
		r.requeues++
		m.Requeues++
		m.traceReq(trace.EvReqRequeue, r)
		m.Submit(r)
		return
	} else {
		r.Err = fmt.Errorf("%w: op %d vip %s after %d resubmissions",
			ErrSwitchFailedMidFlight, r.Op, r.VIP, r.requeues)
	}
	r.Done = true
	m.Processed++
	m.traceReq(trace.EvReqDone, r)
	if r.OnDone != nil {
		r.OnDone(r)
	}
}

// switchFailedMidFlight reports whether the serialized request's target
// switch stopped serving while the request occupied the pipeline. Only
// operations bound to a specific configured switch are affected;
// placement ops (AddVIP, unpreferred AddRIP) pick their switch at apply
// time, and a VIP that lost its home entirely surfaces the normal
// ErrVIPUnknown from apply instead.
func (m *Manager) switchFailedMidFlight(r *Request) bool {
	down := func(vip lbswitch.VIP) bool {
		home, ok := m.fabric.HomeOf(vip)
		if !ok {
			return false
		}
		sw := m.fabric.Switch(home)
		return sw != nil && !sw.Serving()
	}
	switch r.Op {
	case OpDelVIP, OpAdjustWeights:
		return down(r.VIP)
	case OpTransferVIP:
		if down(r.VIP) {
			return true
		}
		dst := m.fabric.Switch(r.Dst)
		return dst != nil && !dst.Serving()
	case OpAddRIP:
		return r.VIP != 0 && down(r.VIP)
	}
	return false
}

// requestOrder is the paper's serialization contract: strictly higher
// priority first; within a priority, submission (FIFO) order. The seq
// comparison makes the order total, so the pump's pick does not depend
// on the queue's layout.
func requestOrder(a, b *Request) int {
	if a.Priority != b.Priority {
		return cmp.Compare(b.Priority, a.Priority)
	}
	return cmp.Compare(a.seq, b.seq)
}

// Do applies r at once, bypassing the queue: the direct write of a
// control plane that does not serialize reconfiguration. Unlike a queued
// request it records no lifecycle events and does not count as
// processed. OnDone runs after the operation, as it would on the pump.
func (m *Manager) Do(r *Request) {
	m.exec(r)
	r.Done = true
	if r.OnDone != nil {
		r.OnDone(r)
	}
}

// exec performs the request's operation, filling Result and Err.
func (m *Manager) exec(r *Request) {
	switch r.Op {
	case OpAddVIP:
		r.Result.VIP, r.Result.Switch, r.Err = m.AddVIP(r.App)
	case OpDelVIP:
		r.Err = m.DelVIP(r.VIP)
	case OpAddRIP:
		// A queued AddRIP names no instance: its entry stays untagged.
		r.Result.VIP, r.Result.Switch, r.Err = m.AddRIP(r.App, r.RIP, r.Weight, r.VIP, -1)
	case OpDelRIP:
		r.Err = m.DelRIP(r.App, r.RIP)
	case OpAdjustWeights:
		r.Err = m.AdjustWeights(r.VIP, r.Weights)
	case OpTransferVIP:
		before := m.fabric.BrokenConns
		r.Err = m.fabric.TransferVIP(r.VIP, r.Dst, r.Force)
		r.Result.Broken = m.fabric.BrokenConns - before
		if r.Err == nil {
			r.Result.VIP, r.Result.Switch = r.VIP, r.Dst
		}
	default:
		r.Err = fmt.Errorf("viprip: unknown op %d", r.Op)
	}
}

// traceReq records one request-lifecycle transition. The refs name the
// app plus whichever addresses the request carries (the result VIP once
// processing assigned one); A/B carry priority and submission seq so a
// timeline shows why the queue ordered its requests the way it did.
func (m *Manager) traceReq(t trace.Type, r *Request) {
	if m.tracer == nil {
		return
	}
	vip := r.VIP
	if vip == 0 {
		vip = r.Result.VIP
	}
	var vipRef, ripRef trace.Ref
	if vip != 0 {
		vipRef = trace.VIP(vip)
	}
	if r.RIP != 0 {
		ripRef = trace.RIP(r.RIP)
	}
	if r.Err != nil {
		m.tracer.RecordErr(t, float64(r.Priority), float64(r.seq), trace.App(r.App), vipRef, ripRef)
		return
	}
	m.tracer.Record(t, float64(r.Priority), float64(r.seq), trace.App(r.App), vipRef, ripRef)
}

// AddVIP allocates an unused address, selects an underloaded switch per
// the policy, and configures the VIP there. It returns the new VIP and
// its home switch.
func (m *Manager) AddVIP(app cluster.AppID) (lbswitch.VIP, lbswitch.SwitchID, error) {
	sw := m.pickSwitchForVIP(app, nil)
	if sw == nil {
		return 0, 0, ErrNoSwitch
	}
	vip, err := m.AddVIPOn(app, sw.ID)
	if err != nil {
		return 0, 0, err
	}
	return vip, sw.ID, nil
}

// AddVIPOn allocates an address and configures the VIP on the given
// switch, bypassing the policy scan. AddVIP and the switch-pod
// hierarchy call it once they have chosen; the bulk onboarding path
// uses it with a round-robin switch cursor: placement there is
// balanced by construction, so the O(switches) pressure scan per VIP
// would buy nothing at paper scale.
func (m *Manager) AddVIPOn(app cluster.AppID, sw lbswitch.SwitchID) (lbswitch.VIP, error) {
	vip, err := m.vipPool.Alloc()
	if err != nil {
		return 0, err
	}
	if err := m.fabric.PlaceVIP(vip, app, sw); err != nil {
		m.vipPool.Free(vip)
		return 0, err
	}
	m.tracer.Record(trace.EvAddVIP, 0, 0, trace.App(app), trace.VIP(vip), trace.SwitchRef(sw))
	return vip, nil
}

// DelVIP removes a VIP (handled "in a straightforward way" per the
// paper) and returns its address to the pool. Active connections are
// broken; deletion is the caller's decision.
func (m *Manager) DelVIP(vip lbswitch.VIP) error {
	if err := m.fabric.DropVIP(vip, true); err != nil {
		return err
	}
	m.tracer.Record(trace.EvDelVIP, 0, 0, trace.VIP(vip))
	return m.vipPool.Free(vip)
}

// AddRIP configures rip with the given weight on a switch hosting one of
// app's VIPs — per the paper, "the manager considers the switches that
// host one of the VIPs of the corresponding application [and] selects
// the most appropriate switch with spare RIP capacity". If preferred is
// non-zero, that VIP is used (needed when a pod manager asks for a RIP
// under a specific VIP); otherwise the VIP on the least-utilized
// eligible switch is chosen. The RIP's switch entry gets tag (see
// lbswitch.Switch.AddRIPTagged; -1 for none) in the insert itself, so a
// caller that knows the instance behind the RIP needs no second lookup
// of the chosen VIP to record it.
func (m *Manager) AddRIP(app cluster.AppID, rip lbswitch.RIP, weight float64, preferred lbswitch.VIP, tag int32) (lbswitch.VIP, lbswitch.SwitchID, error) {
	if !validWeight(weight) {
		return 0, 0, fmt.Errorf("%w: %v for rip %s", ErrBadWeight, weight, rip)
	}
	if preferred != 0 {
		home, ok := m.fabric.HomeOf(preferred)
		if !ok {
			return 0, 0, fmt.Errorf("%w: %s", lbswitch.ErrVIPUnknown, preferred)
		}
		sw := m.fabric.Switch(home)
		if err := sw.AddRIPTagged(preferred, rip, weight, tag); err != nil {
			return 0, 0, err
		}
		m.tracer.Record(trace.EvAddRIP, weight, 0, trace.App(app), trace.VIP(preferred), trace.RIP(rip))
		return preferred, home, nil
	}
	vips := m.fabric.VIPsOfApp(app)
	if len(vips) == 0 {
		return 0, 0, fmt.Errorf("%w: app %d", ErrNoVIPForApp, app)
	}
	// Offer the VIPs whose switches have spare RIP capacity (in the
	// app's VIP order) to the placement policy. The default greedy
	// picks the lowest combined pressure (RIP-count fraction vs
	// throughput utilization), breaking near-ties toward the VIP with
	// the fewest RIPs so an application's instances spread across its
	// VIPs — the historical inline scan, comparison for comparison.
	m.vipCand = m.vipCand[:0]
	for i, vip := range vips {
		home, _ := m.fabric.HomeOf(vip)
		sw := m.fabric.Switch(home)
		if sw.NumRIPs() >= sw.Limits.MaxRIPs {
			continue
		}
		m.vipCand = append(m.vipCand, i)
	}
	if len(m.vipCand) == 0 {
		return 0, 0, fmt.Errorf("%w: app %d (all switches at RIP limit)", ErrNoSwitch, app)
	}
	cands := m.vipCand
	swOf := func(i int) *lbswitch.Switch {
		home, _ := m.fabric.HomeOf(vips[cands[i]])
		return m.fabric.Switch(home)
	}
	idx := m.placement.VIPForRIP(policy.Decision{
		Actor: uint64(app),
		N:     len(cands),
		Key:   func(i int) uint64 { return uint64(swOf(i).ID) },
		Load:  func(i int) float64 { return ripPressure(swOf(i)) },
		Group: func(i int) int {
			if rs, _, err := swOf(i).Weights(vips[cands[i]]); err == nil {
				return len(rs)
			}
			return 0
		},
	})
	if idx < 0 || idx >= len(cands) {
		return 0, 0, fmt.Errorf("%w: app %d (all switches at RIP limit)", ErrNoSwitch, app)
	}
	vip := vips[cands[idx]]
	home, _ := m.fabric.HomeOf(vip)
	if err := m.fabric.Switch(home).AddRIPTagged(vip, rip, weight, tag); err != nil {
		return 0, 0, err
	}
	m.tracer.Record(trace.EvAddRIP, weight, 0, trace.App(app), trace.VIP(vip), trace.RIP(rip))
	return vip, home, nil
}

// DelRIP removes rip from every VIP of app that carries it. Connections
// pinned to the RIP are forcibly broken; they count toward the fabric's
// BrokenConns total so session accounting stays conserved
// (I4.BROKEN_ACCOUNTED).
func (m *Manager) DelRIP(app cluster.AppID, rip lbswitch.RIP) error {
	removed := false
	for _, vip := range m.fabric.VIPsOfApp(app) {
		home, _ := m.fabric.HomeOf(vip)
		sw := m.fabric.Switch(home)
		if n, err := sw.RemoveRIP(vip, rip); err == nil {
			removed = true
			m.fabric.BrokenConns += int64(n)
			m.tracer.Record(trace.EvDelRIP, float64(n), 0, trace.App(app), trace.VIP(vip), trace.RIP(rip))
		}
	}
	if !removed {
		return fmt.Errorf("%w: %s for app %d", lbswitch.ErrNoSuchRIP, rip, app)
	}
	return nil
}

// AdjustWeights applies a weight vector to a VIP's RIPs, preserving a
// total-weight budget: the paper's inter-pod RIP-weight-adjustment knob
// requires "that the total weight of the RIPs ... remains the same so
// the load on other pods is not affected". The weights slice must be
// parallel to the VIP's current RIP order and sum to the current total
// (within tolerance).
func (m *Manager) AdjustWeights(vip lbswitch.VIP, weights []float64) error {
	home, ok := m.fabric.HomeOf(vip)
	if !ok {
		return fmt.Errorf("%w: %s", lbswitch.ErrVIPUnknown, vip)
	}
	sw := m.fabric.Switch(home)
	rips, cur, err := sw.Weights(vip)
	if err != nil {
		return err
	}
	if len(weights) != len(rips) {
		return fmt.Errorf("viprip: %d weights for %d RIPs", len(weights), len(rips))
	}
	// Validate the whole vector before applying any of it: a bad weight
	// discovered mid-loop would leave the group partially updated, which
	// breaks the total-preservation contract and surfaces later as audit
	// I2 share-sum violations. NaN also sails through the total check
	// below (every NaN comparison is false), so reject it here.
	for i, w := range weights {
		if !validWeight(w) {
			return fmt.Errorf("%w: %v for rip %s (index %d)", ErrBadWeight, w, rips[i], i)
		}
	}
	var curTotal, newTotal float64
	for i := range cur {
		curTotal += cur[i]
		newTotal += weights[i]
	}
	diff := newTotal - curTotal
	if diff < 0 {
		diff = -diff
	}
	if diff > 1e-6*(1+curTotal) {
		return fmt.Errorf("viprip: weight total changed %v -> %v; must be preserved", curTotal, newTotal)
	}
	for i, rip := range rips {
		if err := sw.SetWeight(vip, rip, weights[i]); err != nil {
			return err
		}
	}
	m.tracer.Record(trace.EvAdjustWeights, curTotal, float64(len(rips)), trace.VIP(vip), trace.SwitchRef(home))
	return nil
}

// pickSwitchForVIP selects among the switches with a spare VIP slot
// via the pluggable placement: those listed in within, in that order,
// or every switch in ID order when within is nil. Each candidate's
// Load is its blendScore ("an underloaded switch, i.e., one with few
// already-configured VIPs and a low data throughput"); the default
// greedy placement takes the strict-< argmin over it.
func (m *Manager) pickSwitchForVIP(app cluster.AppID, within []lbswitch.SwitchID) *lbswitch.Switch {
	m.swCand = m.swCand[:0]
	n := len(within)
	if within == nil {
		n = m.fabric.NumSwitches()
	}
	for i := 0; i < n; i++ {
		id := lbswitch.SwitchID(i)
		if within != nil {
			id = within[i]
		}
		sw := m.fabric.Switch(id)
		if sw.NumVIPs() >= sw.Limits.MaxVIPs {
			continue
		}
		m.swCand = append(m.swCand, sw)
	}
	if len(m.swCand) == 0 {
		return nil
	}
	cands := m.swCand
	idx := m.placement.VIPSwitch(policy.Decision{
		Actor: uint64(app),
		N:     len(cands),
		Key:   func(i int) uint64 { return uint64(cands[i].ID) },
		Load:  func(i int) float64 { return blendScore(cands[i]) },
	})
	if idx < 0 || idx >= len(cands) {
		return nil
	}
	return cands[idx]
}

// blendScore is a switch's VIP-placement score: the max of its VIP-count
// fraction and its throughput utilization.
func blendScore(sw *lbswitch.Switch) float64 {
	score := vipPressure(sw)
	if u := sw.Utilization(); u > score {
		score = u
	}
	return score
}

func vipPressure(sw *lbswitch.Switch) float64 {
	if sw.Limits.MaxVIPs == 0 {
		return 1
	}
	return float64(sw.NumVIPs()) / float64(sw.Limits.MaxVIPs)
}

func ripPressure(sw *lbswitch.Switch) float64 {
	p := 0.0
	if sw.Limits.MaxRIPs > 0 {
		p = float64(sw.NumRIPs()) / float64(sw.Limits.MaxRIPs)
	}
	if u := sw.Utilization(); u > p {
		p = u
	}
	return p
}

// MinSwitchCount returns the paper's Section V-A arithmetic: the minimum
// number of LB switches needed for nApps applications with vipsPerApp
// VIPs and ripsPerApp RIPs each, given per-switch limits:
// max(ceil(nApps·vipsPerApp / MaxVIPs), ceil(nApps·ripsPerApp / MaxRIPs)).
func MinSwitchCount(nApps, vipsPerApp, ripsPerApp int, limits lbswitch.Limits) int {
	ceilDiv := func(a, b int) int {
		if b <= 0 {
			return 0
		}
		return (a + b - 1) / b
	}
	v := ceilDiv(nApps*vipsPerApp, limits.MaxVIPs)
	r := ceilDiv(nApps*ripsPerApp, limits.MaxRIPs)
	if r > v {
		return r
	}
	return v
}
