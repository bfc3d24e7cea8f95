// Package causal is the decision-provenance assembler (DESIGN.md §16):
// it reconstructs, per control decision, the span tree of everything
// that decision caused — RPC attempts (including retries, duplicates,
// and dead letters), serialized reconfiguration requests and their
// queue waits, DNS writes, fabric effects, and broken sessions.
//
// Every control decision allocates a deterministic CauseID
// (trace.Recorder.NewCause) and records an EvDecision root event; the
// recorder stamps the current CauseID onto every event recorded while
// the decision (or one of its asynchronous continuations, which restore
// the scope) is active. The assembler subscribes to Recorder.OnEvent,
// groups events by CauseID, and nests RPC and request lifecycles one
// level under the root.
//
// Like internal/spans, the assembler is a pure observer: it never
// touches simulation state and never consumes randomness, so a seeded
// run ends byte-identical with the assembler on or off
// (core.TestTracingDoesNotPerturb). Because CauseIDs are allocated only
// in single-threaded control code, the assembled trees are themselves
// byte-deterministic across runs and across Propagate worker counts.
package causal

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"megadc/internal/metrics"
	"megadc/internal/trace"
)

// KnobName maps an EvDecision knob code (Event.A) to the metric label
// used in causal.actuation.<knob> histogram names. The codes are
// core.Knob values; the table mirrors core.Knob.String() without
// importing core (core imports this package).
func KnobName(code int) string {
	switch code {
	case 0:
		return "selective-vip-exposure"
	case 1:
		return "vip-transfer"
	case 2:
		return "server-transfer"
	case 3:
		return "app-deployment"
	case 4:
		return "vm-resize"
	case 5:
		return "rip-weight-adjust"
	}
	return "unknown"
}

// PriorityName maps an EvDecision priority code (Event.B, a
// viprip.Priority value) to its histogram label, mirroring the span
// layer's class names.
func PriorityName(code int) string {
	switch code {
	case 0:
		return "low"
	case 1:
		return "normal"
	case 2:
		return "high"
	}
	return "unknown"
}

// Node is one event in a decision's span tree. Children are ordered by
// recording sequence, so a tree renders identically across runs.
type Node struct {
	Event    trace.Event
	Children []*Node
}

// Tree is one decision's assembled provenance: the EvDecision root plus
// everything recorded under its CauseID.
//
// A *Tree and its nodes are valid only until the tree is evicted: the
// assembler recycles an evicted tree's storage for a later decision,
// so a caller that keeps a tree past the cap must copy what it needs.
type Tree struct {
	Cause    uint64
	Knob     int // EvDecision.A: core.Knob code
	Priority int // EvDecision.B: viprip.Priority code
	Root     *Node
	Events   int     // events in the tree, root included
	Start    float64 // decision time
	End      float64 // latest event time seen

	// EffectAt is the time of the first effect event (fabric/DNS/manager
	// actuation landing); Effected reports whether one was seen — the
	// decision-to-effect latency the causal.actuation histograms measure.
	EffectAt float64
	Effected bool

	// DeadLettered is set when any RPC under this decision exhausted its
	// retry cap; Broken accumulates sessions broken by the decision's
	// forced transfers (the drain protocol reports them via AddBroken —
	// I4.BROKEN_ACCOUNTED).
	DeadLettered bool
	Broken       int64

	// chains indexes the tree's sub-lifecycles in the order they
	// started: RPC attempt chains by bus message ID, request chains by
	// submission seq. A tree holds a handful, so a backwards scan finds
	// the newest chain for a key faster than a map would.
	chains []chain
}

// chain is one sub-lifecycle's head node and its key.
type chain struct {
	key  int64
	req  bool // a request chain (keyed by seq), else an RPC attempt chain
	head *Node
}

// chainHead returns the newest chain head of the given kind and key, or
// nil.
func (t *Tree) chainHead(req bool, key int64) *Node {
	for i := len(t.chains) - 1; i >= 0; i-- {
		if c := &t.chains[i]; c.key == key && c.req == req {
			return c.head
		}
	}
	return nil
}

// Assembler groups flight-recorder events into per-decision span trees
// and feeds the causal.* metric families. Subscribe its Handle method
// to trace.Recorder.OnEvent (the platform fans the hook out to spans
// and causal).
type Assembler struct {
	reg *metrics.Registry

	trees map[uint64]*Tree
	// ring holds the retained trees in first-seen (= allocation) order,
	// oldest at head once the ring is full.
	ring []*Tree
	head int

	// maxTrees bounds retained trees: at the cap, opening a tree evicts
	// the oldest (counters keep counting) and reuses its record. New
	// sets DefaultMaxTrees.
	maxTrees int

	// free holds the nodes of evicted trees, reused before allocating.
	free []*Node

	// The metrics Handle feeds, each looked up in the registry at its
	// first use (so an unused one stays unregistered): the counters and
	// the causal.actuation histograms by knob and priority code.
	decisions, evicted, deadlettered, broken *metrics.Counter
	actuation                                [numKnobs + 1][numPriorities + 1]*metrics.Histogram
}

// The number of knob and priority codes KnobName and PriorityName name;
// each maps every other code to "unknown".
const (
	numKnobs      = 6
	numPriorities = 3
)

// DefaultMaxTrees is the retained-tree cap.
const DefaultMaxTrees = 4096

// New creates an assembler recording metrics into reg (a fresh registry
// if nil).
func New(reg *metrics.Registry) *Assembler {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Assembler{reg: reg, trees: make(map[uint64]*Tree), maxTrees: DefaultMaxTrees}
}

// Registry returns the registry the assembler records into.
func (a *Assembler) Registry() *metrics.Registry { return a.reg }

// Handle consumes one flight-recorder event; it is (part of) the
// trace.Recorder OnEvent hook. Events without a CauseID return
// immediately — causal tracing wired but idle costs nothing on the
// steady Propagate tick.
func (a *Assembler) Handle(e *trace.Event) {
	if e.Cause == 0 {
		return
	}
	if e.Type == trace.EvDecision {
		a.open(e)
		return
	}
	t := a.trees[e.Cause]
	if t == nil {
		return // decision evicted, or cause from before the assembler attached
	}
	n := a.node(e)
	t.Events++
	if e.T > t.End {
		t.End = e.T
	}
	switch e.Type {
	case trace.EvRPCSend:
		// A carries the message ID. The first record for an ID starts an
		// attempt chain under the root; casts (B == 0) and calls alike.
		t.chains = append(t.chains, chain{key: int64(e.A), head: n})
		t.Root.Children = append(t.Root.Children, n)
	case trace.EvRPCRetry, trace.EvRPCDrop, trace.EvRPCDeliver, trace.EvRPCAck, trace.EvRPCDeadLetter:
		if e.Type == trace.EvRPCDeadLetter {
			t.DeadLettered = true
			counter(a.reg, &a.deadlettered, "causal.deadlettered").Add(1)
		}
		if p := t.chainHead(false, int64(e.A)); p != nil {
			p.Children = append(p.Children, n)
		} else {
			t.Root.Children = append(t.Root.Children, n)
		}
	case trace.EvReqSubmit:
		// B carries the request's submission seq; a requeued request
		// re-submits under a fresh seq and starts a sibling chain.
		t.chains = append(t.chains, chain{key: int64(e.B), req: true, head: n})
		t.Root.Children = append(t.Root.Children, n)
	case trace.EvReqProcess, trace.EvReqDone, trace.EvReqRequeue:
		if p := t.chainHead(true, int64(e.B)); p != nil {
			p.Children = append(p.Children, n)
		} else {
			t.Root.Children = append(t.Root.Children, n)
		}
		if e.Type == trace.EvReqDone && e.Err == 0 {
			a.effect(t, e.T)
		}
	default:
		t.Root.Children = append(t.Root.Children, n)
		if e.Err == 0 && isEffect(e.Type) {
			a.effect(t, e.T)
		}
	}
}

// isEffect reports whether the event type represents an actuation
// landing: the moment the decision's intent became platform state.
func isEffect(t trace.Type) bool {
	switch t {
	case trace.EvAddVIP, trace.EvDelVIP, trace.EvAddRIP, trace.EvDelRIP,
		trace.EvAdjustWeights, trace.EvPlaceVIP, trace.EvDropVIP,
		trace.EvTransferVIP, trace.EvDrainFinish, trace.EvResizeVM,
		trace.EvMigrateVM, trace.EvDeploy, trace.EvExpose, trace.EvUnexpose,
		trace.EvScaleOut, trace.EvWeightShift, trace.EvServerTransfer,
		trace.EvDNSWrite:
		return true
	}
	return false
}

// open starts a new tree at an EvDecision root. At the cap it evicts
// the oldest tree and reuses its record and nodes for the new one.
func (a *Assembler) open(e *trace.Event) {
	if a.trees[e.Cause] != nil {
		return // duplicate root; keep the first
	}
	counter(a.reg, &a.decisions, "causal.decisions").Add(1)
	var t *Tree
	if len(a.ring) < a.maxTrees {
		t = new(Tree)
		a.ring = append(a.ring, t)
	} else {
		t = a.ring[a.head]
		a.head = (a.head + 1) % len(a.ring)
		delete(a.trees, t.Cause)
		a.free = appendNodes(a.free, t.Root)
		counter(a.reg, &a.evicted, "causal.evicted").Add(1)
	}
	*t = Tree{
		Cause:    e.Cause,
		Knob:     int(e.A),
		Priority: int(e.B),
		Root:     a.node(e),
		Events:   1,
		Start:    e.T,
		End:      e.T,
		chains:   t.chains[:0],
	}
	a.trees[e.Cause] = t
}

// node returns a node holding a copy of e, reusing an evicted one when
// there is one.
func (a *Assembler) node(e *trace.Event) *Node {
	n := len(a.free)
	if n == 0 {
		return &Node{Event: *e}
	}
	nd := a.free[n-1]
	a.free = a.free[:n-1]
	nd.Event = *e
	return nd
}

// appendNodes appends n and its descendants to dst, each with its
// Children emptied but keeping their capacity for the node's next use.
func appendNodes(dst []*Node, n *Node) []*Node {
	for _, c := range n.Children {
		dst = appendNodes(dst, c)
	}
	clear(n.Children)
	n.Children = n.Children[:0]
	return append(dst, n)
}

// counter returns *c, looking the named counter up in reg on first use.
func counter(reg *metrics.Registry, c **metrics.Counter, name string) *metrics.Counter {
	if *c == nil {
		*c = reg.Counter(name)
	}
	return *c
}

// effect records the decision-to-effect latency on the tree's first
// effect (later effects extend End but observe nothing — one sample per
// decision keeps the histogram a distribution over decisions).
func (a *Assembler) effect(t *Tree, at float64) {
	if t.Effected {
		return
	}
	t.Effected = true
	t.EffectAt = at
	a.actuationHist(t.Knob, t.Priority).Observe(at - t.Start)
}

// actuationHist returns the causal.actuation.<knob>.<prio> histogram,
// creating it at first use. Every unknown code shares the last slot,
// as it shares the "unknown" label.
func (a *Assembler) actuationHist(knob, prio int) *metrics.Histogram {
	if knob < 0 || knob > numKnobs {
		knob = numKnobs
	}
	if prio < 0 || prio > numPriorities {
		prio = numPriorities
	}
	h := &a.actuation[knob][prio]
	if *h == nil {
		*h = a.reg.Histogram("causal.actuation." + KnobName(knob) + "." + PriorityName(prio))
	}
	return *h
}

// AddBroken attributes n broken sessions to the decision behind cause
// (the drain protocol calls this when a forced transfer reports its
// broken-connection count — I4.BROKEN_ACCOUNTED).
func (a *Assembler) AddBroken(cause uint64, n int64) {
	if a == nil || n <= 0 {
		return
	}
	if t := a.trees[cause]; t != nil {
		t.Broken += n
	}
	counter(a.reg, &a.broken, "causal.sessions_broken").Add(n)
}

// Tree returns the assembled tree for cause, or nil.
func (a *Assembler) Tree(cause uint64) *Tree {
	if a == nil {
		return nil
	}
	return a.trees[cause]
}

// Causes returns the retained CauseIDs in allocation order.
func (a *Assembler) Causes() []uint64 {
	if a == nil || len(a.ring) == 0 {
		return nil
	}
	out := make([]uint64, 0, len(a.ring))
	for i := range a.ring {
		out = append(out, a.at(i).Cause)
	}
	return out
}

// at returns the i-th oldest retained tree.
func (a *Assembler) at(i int) *Tree {
	return a.ring[(a.head+i)%len(a.ring)]
}

// Abandoned counts retained decisions that never produced an effect and
// are not explained by a dead letter — decisions still in flight or
// dropped on the floor. Published as the causal.abandoned gauge.
func (a *Assembler) Abandoned() int {
	n := 0
	for _, t := range a.ring {
		if !t.Effected && !t.DeadLettered {
			n++
		}
	}
	return n
}

// PublishMetrics refreshes the causal.* gauges from assembled state at
// simulated time now.
func (a *Assembler) PublishMetrics(now float64) {
	if a == nil {
		return
	}
	a.reg.Gauge("causal.trees").Set(now, float64(len(a.ring)))
	a.reg.Gauge("causal.abandoned").Set(now, float64(a.Abandoned()))
}

// WriteTree renders one decision's span tree as deterministic text: the
// root line carries the decision summary, children indent two spaces
// per level, every line is the event's flight-recorder String form.
func (a *Assembler) WriteTree(w io.Writer, cause uint64) error {
	t := a.Tree(cause)
	if t == nil {
		return fmt.Errorf("causal: no tree for cause %d", cause)
	}
	var sb strings.Builder
	writeSummary(&sb, t)
	writeNode(&sb, t.Root, 0)
	_, err := io.WriteString(w, sb.String())
	return err
}

// WriteAll renders every retained tree in allocation order.
func (a *Assembler) WriteAll(w io.Writer) error {
	if a == nil {
		return nil
	}
	for i := range a.ring {
		if err := a.WriteTree(w, a.at(i).Cause); err != nil {
			return err
		}
	}
	return nil
}

func writeSummary(sb *strings.Builder, t *Tree) {
	sb.WriteString("cause ")
	sb.WriteString(strconv.FormatUint(t.Cause, 10))
	sb.WriteString(" knob=")
	sb.WriteString(KnobName(t.Knob))
	sb.WriteString(" prio=")
	sb.WriteString(PriorityName(t.Priority))
	sb.WriteString(" t=")
	sb.WriteString(strconv.FormatFloat(t.Start, 'g', -1, 64))
	sb.WriteString("..")
	sb.WriteString(strconv.FormatFloat(t.End, 'g', -1, 64))
	sb.WriteString(" events=")
	sb.WriteString(strconv.Itoa(t.Events))
	if t.Effected {
		sb.WriteString(" effect=+")
		sb.WriteString(strconv.FormatFloat(t.EffectAt-t.Start, 'g', -1, 64))
		sb.WriteString("s")
	}
	if t.Broken > 0 {
		sb.WriteString(" broken=")
		sb.WriteString(strconv.FormatInt(t.Broken, 10))
	}
	if t.DeadLettered {
		sb.WriteString(" dead-letter")
	}
	sb.WriteByte('\n')
}

func writeNode(sb *strings.Builder, n *Node, depth int) {
	for i := 0; i < depth+1; i++ {
		sb.WriteString("  ")
	}
	sb.WriteString(n.Event.String())
	sb.WriteByte('\n')
	for _, c := range n.Children {
		writeNode(sb, c, depth+1)
	}
}
