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
	"slices"
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

	// rpc/req index open sub-lifecycles: bus message ID → attempt chain
	// node, request seq → request chain node.
	rpc map[int64]*Node
	req map[int64]*Node
}

// Assembler groups flight-recorder events into per-decision span trees
// and feeds the causal.* metric families. Subscribe its Handle method
// to trace.Recorder.OnEvent (the platform fans the hook out to spans
// and causal).
type Assembler struct {
	reg *metrics.Registry

	trees map[uint64]*Tree
	order []uint64 // CauseIDs in first-seen (= allocation) order

	// maxTrees bounds retained trees: when exceeded, the oldest tree is
	// evicted (counters keep counting). New sets DefaultMaxTrees.
	maxTrees int
}

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
	n := &Node{Event: *e}
	t.Events++
	if e.T > t.End {
		t.End = e.T
	}
	switch e.Type {
	case trace.EvRPCSend:
		// A carries the message ID. The first record for an ID starts an
		// attempt chain under the root; casts (B == 0) and calls alike.
		t.rpc[int64(e.A)] = n
		t.Root.Children = append(t.Root.Children, n)
	case trace.EvRPCRetry, trace.EvRPCDrop, trace.EvRPCDeliver, trace.EvRPCAck, trace.EvRPCDeadLetter:
		if e.Type == trace.EvRPCDeadLetter {
			t.DeadLettered = true
			a.reg.Counter("causal.deadlettered").Add(1)
		}
		if p := t.rpc[int64(e.A)]; p != nil {
			p.Children = append(p.Children, n)
		} else {
			t.Root.Children = append(t.Root.Children, n)
		}
	case trace.EvReqSubmit:
		// B carries the request's submission seq; a requeued request
		// re-submits under a fresh seq and starts a sibling chain.
		t.req[int64(e.B)] = n
		t.Root.Children = append(t.Root.Children, n)
	case trace.EvReqProcess, trace.EvReqDone, trace.EvReqRequeue:
		if p := t.req[int64(e.B)]; p != nil {
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

// open starts a new tree at an EvDecision root and evicts past the cap.
func (a *Assembler) open(e *trace.Event) {
	if a.trees[e.Cause] != nil {
		return // duplicate root; keep the first
	}
	t := &Tree{
		Cause:    e.Cause,
		Knob:     int(e.A),
		Priority: int(e.B),
		Root:     &Node{Event: *e},
		Events:   1,
		Start:    e.T,
		End:      e.T,
		rpc:      make(map[int64]*Node),
		req:      make(map[int64]*Node),
	}
	a.trees[e.Cause] = t
	a.order = append(a.order, e.Cause)
	a.reg.Counter("causal.decisions").Add(1)
	if len(a.order) > a.maxTrees {
		delete(a.trees, a.order[0])
		a.order = a.order[1:]
		a.reg.Counter("causal.evicted").Add(1)
	}
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
	a.reg.Histogram("causal.actuation." + KnobName(t.Knob) + "." + PriorityName(t.Priority)).
		Observe(at - t.Start)
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
	a.reg.Counter("causal.sessions_broken").Add(n)
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
	if a == nil {
		return nil
	}
	return slices.Clone(a.order)
}

// Abandoned counts retained decisions that never produced an effect and
// are not explained by a dead letter — decisions still in flight or
// dropped on the floor. Published as the causal.abandoned gauge.
func (a *Assembler) Abandoned() int {
	n := 0
	for _, c := range a.order {
		t := a.trees[c]
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
	a.reg.Gauge("causal.trees").Set(now, float64(len(a.order)))
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
	for _, c := range a.order {
		if err := a.WriteTree(w, c); err != nil {
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
