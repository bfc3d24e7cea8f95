// Package trace is the simulation's flight recorder: a fixed-size ring
// buffer of small, typed events emitted by the hot protocol paths
// (VIP/RIP manager requests, fabric placements and transfers, the drain
// protocol, manager decisions, health transitions) plus a per-tick
// time-series capture (timeseries.go).
//
// The recorder is designed to cost nothing when disabled: every Record*
// method is nil-safe, events are plain value structs with no pointers,
// and recording into the ring never allocates after construction. Code
// under test therefore keeps an always-present `*Recorder` field and
// calls it unconditionally; a nil recorder is the "tracing off" state.
//
// When the invariant auditor fires, Recorder.TailTouching extracts the
// most recent events mentioning the violating entity, turning a bare
// violation report into a readable timeline (see internal/audit).
package trace

import (
	"fmt"
	"io"
	"strconv"
	"strings"

	"megadc/internal/ipv4"
)

// Kind classifies the entity a Ref points at. The kinds mirror the
// component vocabulary used by audit violation details ("vip %s",
// "server %d", ...) so ParseRefs can recover refs from a report.
type Kind uint8

// Entity kinds.
const (
	KindNone Kind = iota
	KindApp
	KindVIP
	KindRIP
	KindServer
	KindSwitch
	KindLink
	KindVM
	KindPod
)

var kindNames = [...]string{
	KindNone:   "-",
	KindApp:    "app",
	KindVIP:    "vip",
	KindRIP:    "rip",
	KindServer: "server",
	KindSwitch: "switch",
	KindLink:   "link",
	KindVM:     "vm",
	KindPod:    "pod",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Ref identifies one entity touched by an event by its numeric ID.
// Address-named entities (VIPs, RIPs) keep their IPv4 address there,
// so a Ref, and with it every recorded event, holds no pointer.
type Ref struct {
	Kind Kind
	ID   int64
}

// Matches reports whether two refs identify the same entity.
func (r Ref) Matches(o Ref) bool {
	return r.Kind == o.Kind && r.Kind != KindNone && r.ID == o.ID
}

func (r Ref) String() string {
	if r.Kind == KindNone {
		return "-"
	}
	if r.Kind == KindVIP || r.Kind == KindRIP {
		return r.Kind.String() + ":" + ipv4.Addr(r.ID).String()
	}
	return r.Kind.String() + ":" + strconv.FormatInt(r.ID, 10)
}

// Ref constructors, so call sites read as trace.App(id), trace.VIP(v).

// entityID is any integer ID type of the simulator's entities.
type entityID interface{ ~int | ~int32 | ~int64 }

// App makes an application ref.
func App[T entityID](id T) Ref { return Ref{Kind: KindApp, ID: int64(id)} }

// VIP makes a VIP ref.
func VIP(addr ipv4.Addr) Ref { return Ref{Kind: KindVIP, ID: int64(addr)} }

// RIP makes a RIP ref.
func RIP(addr ipv4.Addr) Ref { return Ref{Kind: KindRIP, ID: int64(addr)} }

// Server makes a server ref.
func Server[T entityID](id T) Ref { return Ref{Kind: KindServer, ID: int64(id)} }

// SwitchRef makes an LB-switch ref.
func SwitchRef[T entityID](id T) Ref { return Ref{Kind: KindSwitch, ID: int64(id)} }

// Link makes an access-link ref.
func Link[T entityID](id T) Ref { return Ref{Kind: KindLink, ID: int64(id)} }

// VM makes a VM ref.
func VM[T entityID](id T) Ref { return Ref{Kind: KindVM, ID: int64(id)} }

// Pod makes a pod ref.
func Pod[T entityID](id T) Ref { return Ref{Kind: KindPod, ID: int64(id)} }

// Type is the event type. Events are grouped by the protocol that emits
// them; the numeric values are stable only within a build, so exports
// always carry the name.
type Type uint8

// Event types.
const (
	EvNone Type = iota

	// viprip.Manager request lifecycle (queue → process → done).
	EvReqSubmit
	EvReqProcess
	EvReqDone

	// viprip.Manager operations.
	EvAddVIP
	EvDelVIP
	EvAddRIP
	EvDelRIP
	EvAdjustWeights

	// lbswitch.Fabric.
	EvPlaceVIP
	EvDropVIP
	EvTransferVIP

	// Global-manager drain protocol (knob B/D transfer preamble).
	EvDrainStart
	EvDrainRetry
	EvDrainForce
	EvDrainFinish

	// Pod/global manager decisions.
	EvResizeVM
	EvMigrateVM
	EvDeploy
	EvExpose
	EvUnexpose
	EvScaleOut
	EvWeightShift
	EvServerTransfer

	// Health transitions (A = from state, B = to state).
	EvHealth

	// Audit sweep outcome (A = violation count).
	EvAudit

	// Control-plane message bus (internal/ctrlplane). A carries the
	// message ID; B carries the attempt number (EvRPCSend/EvRPCRetry/
	// EvRPCDrop), the delivery latency (EvRPCDeliver), the round-trip
	// time (EvRPCAck), or the attempt count (EvRPCDeadLetter). Casts
	// record EvRPCSend with B=0 — no lifecycle, nothing acks them.
	EvRPCSend
	EvRPCDeliver
	EvRPCDrop
	EvRPCRetry
	EvRPCAck
	EvRPCDeadLetter

	// Control-plane partition windows (ref 0 names the endpoint when it
	// is a pod).
	EvPartition
	EvHeal

	// viprip serialized pipeline: the in-service request's switch failed
	// mid-flight and the request was resubmitted (A = priority, B = the
	// seq the request held before resubmission).
	EvReqRequeue

	// Decision provenance (DESIGN.md §16). EvDecision is the root of a
	// causal span tree: a control decision was taken (A = knob code per
	// causal.KnobName, B = priority class). Every event recorded while
	// the decision's CauseID is current — including asynchronous
	// continuations that restore it — carries the same Cause value.
	EvDecision

	// dnsctl authoritative write (A = weight written, B = record
	// generation). Err is set when an optimistic SetWeightIfGen write
	// lost its generation race (the stale-write path).
	EvDNSWrite
)

var typeNames = [...]string{
	EvNone:           "none",
	EvReqSubmit:      "req-submit",
	EvReqProcess:     "req-process",
	EvReqDone:        "req-done",
	EvAddVIP:         "add-vip",
	EvDelVIP:         "del-vip",
	EvAddRIP:         "add-rip",
	EvDelRIP:         "del-rip",
	EvAdjustWeights:  "adjust-weights",
	EvPlaceVIP:       "place-vip",
	EvDropVIP:        "drop-vip",
	EvTransferVIP:    "transfer-vip",
	EvDrainStart:     "drain-start",
	EvDrainRetry:     "drain-retry",
	EvDrainForce:     "drain-force",
	EvDrainFinish:    "drain-finish",
	EvResizeVM:       "resize-vm",
	EvMigrateVM:      "migrate-vm",
	EvDeploy:         "deploy",
	EvExpose:         "expose",
	EvUnexpose:       "unexpose",
	EvScaleOut:       "scale-out",
	EvWeightShift:    "weight-shift",
	EvServerTransfer: "server-transfer",
	EvHealth:         "health",
	EvAudit:          "audit",
	EvRPCSend:        "rpc-send",
	EvRPCDeliver:     "rpc-deliver",
	EvRPCDrop:        "rpc-drop",
	EvRPCRetry:       "rpc-retry",
	EvRPCAck:         "rpc-ack",
	EvRPCDeadLetter:  "rpc-dead-letter",
	EvPartition:      "partition",
	EvHeal:           "heal",
	EvReqRequeue:     "req-requeue",
	EvDecision:       "decision",
	EvDNSWrite:       "dns-write",
}

func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("type(%d)", uint8(t))
}

// Event is one recorded occurrence. It is a small flat value with no
// pointers (VIP and RIP refs carry their IPv4 address as a number), so
// the ring holds events without allocating and GC never scans it.
// A and B are a per-type payload (a weight, a state pair, a count);
// Err is 1 when the traced operation failed. Cause, when nonzero, is
// the CauseID of the control decision this event descends from
// (DESIGN.md §16): the recorder stamps it from the current cause scope
// so whole actuation chains share one ID.
type Event struct {
	Seq   uint64
	T     float64
	Type  Type
	Err   uint8
	Cause uint64
	Refs  [3]Ref
	A, B  float64
}

// Touches reports whether the event mentions the entity identified by ref.
func (e *Event) Touches(ref Ref) bool {
	for i := range e.Refs {
		if e.Refs[i].Matches(ref) {
			return true
		}
	}
	return false
}

// String renders the event on one line: "seq t=... type refs a b [err]".
// The format is stable across runs of the same build (used by the
// determinism test: two seeded traced runs produce byte-identical logs).
func (e *Event) String() string {
	var sb strings.Builder
	e.writeTo(&sb)
	return sb.String()
}

func (e *Event) writeTo(sb *strings.Builder) {
	sb.WriteString(strconv.FormatUint(e.Seq, 10))
	sb.WriteString(" t=")
	sb.WriteString(strconv.FormatFloat(e.T, 'g', -1, 64))
	sb.WriteByte(' ')
	sb.WriteString(e.Type.String())
	for i := range e.Refs {
		if e.Refs[i].Kind == KindNone {
			continue
		}
		sb.WriteByte(' ')
		sb.WriteString(e.Refs[i].String())
	}
	if e.A != 0 || e.B != 0 {
		sb.WriteString(" a=")
		sb.WriteString(strconv.FormatFloat(e.A, 'g', -1, 64))
		sb.WriteString(" b=")
		sb.WriteString(strconv.FormatFloat(e.B, 'g', -1, 64))
	}
	if e.Cause != 0 {
		sb.WriteString(" cause=")
		sb.WriteString(strconv.FormatUint(e.Cause, 10))
	}
	if e.Err != 0 {
		sb.WriteString(" err")
	}
}

// Recorder is the flight recorder: a fixed-capacity ring of events plus
// an optional time-series capture. All methods are safe on a nil
// receiver (tracing disabled) and recording never allocates.
type Recorder struct {
	// Now supplies the simulation clock; set by the platform when the
	// recorder is wired in. Nil means events record T=0.
	Now func() float64

	// TS, when non-nil, collects per-tick samples (see Timeseries).
	TS *Timeseries

	// OnEvent, when non-nil, observes every event as it is recorded
	// (after it lands in the ring). The span layer (internal/spans)
	// subscribes here to turn point events into duration distributions.
	// The callback must treat the event as read-only and must not touch
	// simulation state: it runs inside the hot protocol paths.
	OnEvent func(*Event)

	buf  []Event
	next uint64 // total events ever recorded; buf slot is next % len(buf)

	cause     uint64 // current cause scope, stamped onto every event
	lastCause uint64 // last CauseID handed out by NewCause
}

// DefaultRingSize is the event capacity used when callers pass n <= 0.
const DefaultRingSize = 4096

// NewRecorder makes a recorder with an n-event ring (DefaultRingSize if
// n <= 0) and an empty time-series capture.
func NewRecorder(n int) *Recorder {
	if n <= 0 {
		n = DefaultRingSize
	}
	return &Recorder{buf: make([]Event, n), TS: &Timeseries{}}
}

// Enabled reports whether events are being recorded.
func (r *Recorder) Enabled() bool { return r != nil }

// Len returns the number of events currently held (≤ ring capacity).
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	if r.next < uint64(len(r.buf)) {
		return int(r.next)
	}
	return len(r.buf)
}

// Total returns the number of events ever recorded (including ones the
// ring has since overwritten).
func (r *Recorder) Total() uint64 {
	if r == nil {
		return 0
	}
	return r.next
}

// Record appends one event to the ring. refs beyond the first three are
// dropped. Nil-safe; never allocates (the variadic slice stays on the
// caller's stack — the refs are copied into the ring by value).
func (r *Recorder) Record(t Type, a, b float64, refs ...Ref) {
	r.record(t, 0, a, b, refs)
}

// RecordErr is Record for a failed operation (the event is flagged so
// timelines distinguish attempts from effects).
func (r *Recorder) RecordErr(t Type, a, b float64, refs ...Ref) {
	r.record(t, 1, a, b, refs)
}

// NewCause allocates the next CauseID: a deterministic counter starting
// at 1, advanced only by decision sites in single-threaded control code,
// so the sequence is identical across seeded runs and independent of
// Propagate worker counts. Nil-safe: tracing off allocates nothing and
// returns 0 (the "no cause" value).
func (r *Recorder) NewCause() uint64 {
	if r == nil {
		return 0
	}
	r.lastCause++
	return r.lastCause
}

// WithCause runs f with id installed as the current cause scope and
// restores the previous scope afterwards. Every event recorded while
// the scope is active carries id in its Cause field. Asynchronous
// continuations (bus callbacks, engine timers) capture the id when the
// decision is made and run under it here. Nil-safe: with tracing off
// it just runs f.
func (r *Recorder) WithCause(id uint64, f func()) {
	if r == nil {
		f()
		return
	}
	prev := r.cause
	r.cause = id
	f()
	r.cause = prev
}

// CurrentCause returns the CauseID in scope (0 when none, or nil).
func (r *Recorder) CurrentCause() uint64 {
	if r == nil {
		return 0
	}
	return r.cause
}

func (r *Recorder) record(t Type, errFlag uint8, a, b float64, refs []Ref) {
	if r == nil {
		return
	}
	e := Event{Seq: r.next, Type: t, Err: errFlag, Cause: r.cause, A: a, B: b}
	if r.Now != nil {
		e.T = r.Now()
	}
	n := len(refs)
	if n > len(e.Refs) {
		n = len(e.Refs)
	}
	copy(e.Refs[:], refs[:n])
	slot := &r.buf[r.next%uint64(len(r.buf))]
	*slot = e
	r.next++
	if r.OnEvent != nil {
		r.OnEvent(slot)
	}
}

// Events returns the retained events oldest-first as a fresh slice.
func (r *Recorder) Events() []Event {
	if r == nil || r.next == 0 {
		return nil
	}
	n := uint64(r.Len())
	out := make([]Event, 0, n)
	for i := r.next - n; i < r.next; i++ {
		out = append(out, r.buf[i%uint64(len(r.buf))])
	}
	return out
}

// TailTouching returns the most recent events (oldest-first, at most n)
// that mention any of the given refs. It walks the ring backwards so
// the cost is bounded by the ring size regardless of run length.
func (r *Recorder) TailTouching(refs []Ref, n int) []Event {
	if r == nil || n <= 0 || len(refs) == 0 || r.next == 0 {
		return nil
	}
	held := uint64(r.Len())
	// Two passes: count the matches first, then fill an exactly-sized
	// slice — the call's only allocation is its result, and a miss
	// allocates nothing (pinned by TestTailTouchingAllocs; the auditor
	// calls this on the hot violation path with n small and fixed).
	touches := func(e *Event) bool {
		for _, ref := range refs {
			if e.Touches(ref) {
				return true
			}
		}
		return false
	}
	count := 0
	for i := uint64(0); i < held && count < n; i++ {
		if touches(&r.buf[(r.next-1-i)%uint64(len(r.buf))]) {
			count++
		}
	}
	if count == 0 {
		return nil
	}
	// Fill back-to-front while walking newest-first, so the result comes
	// out chronological without a reversal pass.
	out := make([]Event, count)
	for i, k := uint64(0), count-1; i < held && k >= 0; i++ {
		e := &r.buf[(r.next-1-i)%uint64(len(r.buf))]
		if touches(e) {
			out[k] = *e
			k--
		}
	}
	return out
}

// WriteEvents dumps the retained events oldest-first, one per line, in
// the Event.String format.
func (r *Recorder) WriteEvents(w io.Writer) error {
	if r == nil {
		return nil
	}
	var sb strings.Builder
	n := uint64(r.Len())
	for i := r.next - n; i < r.next; i++ {
		sb.Reset()
		e := r.buf[i%uint64(len(r.buf))]
		e.writeTo(&sb)
		sb.WriteByte('\n')
		if _, err := io.WriteString(w, sb.String()); err != nil {
			return err
		}
	}
	return nil
}

// ParseRefs recovers entity refs from free-form detail text using the
// audit report vocabulary: "vip <addr>", "rip <addr>", "server <id>",
// "switch <id>", "link <id>", "vm <id>", "pod <id>", "app <id>".
// Unknown words are skipped, so it is safe on arbitrary violation
// details; it returns at most the refs found, possibly none.
func ParseRefs(detail string) []Ref {
	fields := strings.FieldsFunc(detail, func(r rune) bool {
		return r == ' ' || r == '\t' || r == ',' || r == ';' || r == ':' || r == '(' || r == ')'
	})
	var out []Ref
	for i := 0; i+1 < len(fields); i++ {
		var k Kind
		switch fields[i] {
		case "app":
			k = KindApp
		case "vip":
			k = KindVIP
		case "rip":
			k = KindRIP
		case "server":
			k = KindServer
		case "switch":
			k = KindSwitch
		case "link":
			k = KindLink
		case "vm":
			k = KindVM
		case "pod":
			k = KindPod
		default:
			continue
		}
		val := fields[i+1]
		var id int64
		if k == KindVIP || k == KindRIP {
			a, err := ipv4.Parse(val)
			if err != nil {
				continue
			}
			id = int64(a)
		} else if n, err := strconv.ParseInt(val, 10, 64); err == nil {
			id = n
		} else {
			continue
		}
		out = append(out, Ref{Kind: k, ID: id})
		i++
	}
	return out
}
