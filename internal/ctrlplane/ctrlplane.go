// Package ctrlplane is the fallible asynchronous control plane: a
// deterministic message bus between the global manager, the pod
// managers, and the viprip/dnsctl configuration pipeline. Every control
// RPC routed through the bus becomes an at-least-once message with a
// per-attempt deadline, exponential backoff with seeded jitter, a retry
// cap, and an idempotency flag on the message so duplicated or
// reordered retries can never double-apply an effect. When the retry
// cap is exhausted the message becomes a typed dead letter and the
// caller's compensation hook runs instead of the effect.
//
// Per-link behavior (delay, jitter, loss, duplication) is configurable;
// endpoints can be partitioned (messages to and from them are dropped
// at arrival) and healed. All randomness comes from the bus's own
// seeded RNG — never from the simulation engine's — and the ideal fast
// path (zero delay, zero loss, no partition) applies effects inline
// with zero engine events and zero RNG draws, so a run with the bus
// enabled at ideal settings ends in the same platform state as a run
// with it disabled (core.TestSyncEquivalence).
package ctrlplane

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"

	"megadc/internal/metrics"
	"megadc/internal/sim"
	"megadc/internal/trace"
)

// Endpoint names one control-plane participant.
type Endpoint string

// Well-known endpoints. Pod managers use Pod(id).
const (
	// Global is the global manager.
	Global Endpoint = "global"
	// CSM is the switch-configuration pipeline (the viprip manager).
	CSM Endpoint = "csm"
	// DNS is the authoritative DNS controller.
	DNS Endpoint = "dns"
)

// Pod returns the endpoint of pod id's manager.
func Pod(id int) Endpoint { return Endpoint("pod/" + strconv.Itoa(id)) }

// PodOf parses a pod endpoint back to its pod ID.
func PodOf(ep Endpoint) (int, bool) {
	s, ok := strings.CutPrefix(string(ep), "pod/")
	if !ok {
		return 0, false
	}
	id, err := strconv.Atoi(s)
	if err != nil {
		return 0, false
	}
	return id, true
}

// epRef resolves an endpoint to a trace ref (pods only; the fixed
// endpoints have no entity kind in the flight-recorder vocabulary).
func epRef(ep Endpoint) trace.Ref {
	if id, ok := PodOf(ep); ok {
		return trace.Pod(id)
	}
	return trace.Ref{}
}

// LinkConfig describes one directed link's fault behavior.
type LinkConfig struct {
	// Delay is the fixed one-way message delay (simulated seconds).
	Delay float64
	// Jitter adds Uniform(0, Jitter) seconds per message, drawn from the
	// bus's seeded RNG.
	Jitter float64
	// LossProb is the per-attempt probability a message is lost in flight.
	LossProb float64
	// DupProb is the probability a delivered message arrives twice.
	DupProb float64
}

func (l LinkConfig) ideal() bool {
	return l.Delay == 0 && l.Jitter == 0 && l.LossProb == 0 && l.DupProb == 0
}

// LinkKey builds the Config.Links key for the from→to direction.
func LinkKey(from, to Endpoint) string { return string(from) + "->" + string(to) }

// Config configures a Bus.
type Config struct {
	// Enable turns the bus on. Disabled (the zero value), every Call and
	// Cast applies inline — the historical synchronous control plane.
	Enable bool

	// Default is the link config used for any direction not overridden
	// in Links (keys built with LinkKey).
	Default LinkConfig
	Links   map[string]LinkConfig

	// RetryTimeout is the deadline of a message's first attempt; attempt
	// n times out after RetryTimeout·BackoffFactor^(n-1)·(1+RetryJitter·U)
	// with U drawn Uniform(0,1) from the bus RNG.
	RetryTimeout  float64
	BackoffFactor float64
	RetryJitter   float64
	// MaxRetries caps the retries after the first attempt; when attempt
	// 1+MaxRetries also times out the message dead-letters.
	MaxRetries int

	// SnapshotEvery, when positive, is the period at which pod managers
	// cast utilization snapshots to the global manager, which then makes
	// inter-pod decisions on its last-received snapshot instead of live
	// state (SNIPPETS.md snippet 3's SnapshotRefreshInterval). 0 keeps
	// the global manager reading live pod state.
	SnapshotEvery float64

	// Seed seeds the bus's private RNG (loss, jitter, duplication,
	// backoff jitter). The platform defaults it to the topology seed.
	Seed int64

	// Registry, when non-nil, receives the rpc.delivery_latency
	// histogram (observed at first delivery of every Call and at 0 on
	// the ideal fast path).
	Registry *metrics.Registry
}

// DefaultConfig returns the bus defaults used by the binaries: disabled,
// ideal links, and a retry policy whose total window (≈1270 s at
// RetryTimeout 10, factor 2, 6 retries) comfortably outlasts the default
// partition MTTR, so partitioned churn runs end with zero dead letters.
func DefaultConfig() Config {
	return Config{
		RetryTimeout:  10,
		BackoffFactor: 2,
		RetryJitter:   0.1,
		MaxRetries:    6,
	}
}

// Validate checks configuration sanity (only when enabled; a disabled
// zero-value config is always valid). A NaN or infinite delay would
// schedule an engine event outside the event order, and a NaN
// probability would silently never fire, so both are rejected.
func (c *Config) Validate() error {
	if !c.Enable {
		return nil
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"RetryTimeout", c.RetryTimeout},
		{"BackoffFactor", c.BackoffFactor},
		{"RetryJitter", c.RetryJitter},
		{"SnapshotEvery", c.SnapshotEvery},
	} {
		if !(f.v >= 0) || math.IsInf(f.v, 0) {
			return fmt.Errorf("ctrlplane: %s must be finite and >= 0, got %v", f.name, f.v)
		}
	}
	if c.RetryTimeout == 0 {
		return fmt.Errorf("ctrlplane: RetryTimeout must be positive, got 0")
	}
	if c.BackoffFactor < 1 {
		return fmt.Errorf("ctrlplane: BackoffFactor must be >= 1, got %v", c.BackoffFactor)
	}
	if c.MaxRetries < 0 {
		return fmt.Errorf("ctrlplane: MaxRetries must be >= 0, got %d", c.MaxRetries)
	}
	check := func(where string, l LinkConfig) error {
		if !(l.Delay >= 0) || math.IsInf(l.Delay, 0) || !(l.Jitter >= 0) || math.IsInf(l.Jitter, 0) {
			return fmt.Errorf("ctrlplane: %s delay/jitter must be finite and >= 0, got %v/%v", where, l.Delay, l.Jitter)
		}
		if !(l.LossProb >= 0 && l.LossProb <= 1) || !(l.DupProb >= 0 && l.DupProb <= 1) {
			return fmt.Errorf("ctrlplane: %s loss/dup probability outside [0,1], got %v/%v", where, l.LossProb, l.DupProb)
		}
		return nil
	}
	if err := check("default link", c.Default); err != nil {
		return err
	}
	for k, l := range c.Links {
		if err := check("link "+k, l); err != nil {
			return err
		}
	}
	return nil
}

// DeadLetter is one message whose retry cap was exhausted.
type DeadLetter struct {
	ID       uint64
	From, To Endpoint
	Name     string
	Attempts int
	T        float64 // simulated time the cap was declared exhausted
}

// message is one Call or Cast in flight. Its engine callbacks are bound
// once, when it is sent, and every attempt and copy reuses them; each
// runs under the cause captured at send time (DESIGN.md §16).
type message struct {
	b        *Bus
	id       uint64
	from, to Endpoint
	name     string
	apply    func()
	onDead   func()
	cast     bool // best effort: no ack, no retry, every copy applies

	sentAt   float64 // first attempt's send time
	attempts int     // a Call's attempts so far; a Cast's stays 0
	cause    uint64
	timer    sim.Event
	applied  bool // idempotency flag: later copies of a Call dedup
	done     bool // acked or dead-lettered; straggler deliveries are inert

	onArrive, onExpire, onAck func()
}

// Bus is the control-plane message bus. All methods are nil-safe; a nil
// or disabled bus applies every Call and Cast inline.
type Bus struct {
	eng *sim.Engine
	cfg Config
	rng *rand.Rand

	tracer *trace.Recorder

	nextID      uint64
	partitioned map[Endpoint]bool

	// OnHeal observes heals; the platform wires it to the pod managers'
	// reconciliation.
	OnHeal func(Endpoint)

	// Counters (published as rpc.* metrics).
	Sent        int64 // Calls issued
	Casts       int64 // Casts issued
	Delivered   int64 // first deliveries that applied an effect
	Deduped     int64 // duplicate deliveries suppressed by the idempotency flag
	Dropped     int64 // attempts lost to link loss or partitions (incl. lost acks)
	Duplicates  int64 // attempts the link duplicated in flight
	Retries     int64 // resends after a timeout
	Acks        int64 // Calls settled by an acknowledgment
	DeadLetters int64 // Calls settled by retry-cap exhaustion
	Partitions  int64
	Heals       int64

	// DeadLetterLog records every dead letter, in order.
	DeadLetterLog []DeadLetter

	// Single-shot test knobs, consumed by the next attempt (Call or
	// Cast): force-drop it, force-duplicate it, or add a fixed extra
	// delay (which reorders it behind later traffic). While any knob is
	// armed the ideal fast path is off, so the fault actually lands.
	DropNext  int
	DupNext   int
	DelayNext float64
}

// New creates a bus on eng. The config should come from DefaultConfig
// with overrides; Validate is the caller's (platform's) job.
func New(eng *sim.Engine, cfg Config) *Bus {
	if eng == nil {
		panic("ctrlplane: New(nil engine)")
	}
	return &Bus{
		eng:         eng,
		cfg:         cfg,
		rng:         rand.New(rand.NewSource(cfg.Seed)),
		partitioned: make(map[Endpoint]bool),
	}
}

// SetTracer attaches the flight recorder (nil disables rpc tracing).
func (b *Bus) SetTracer(r *trace.Recorder) {
	if b != nil {
		b.tracer = r
	}
}

// Enabled reports whether messages actually traverse the bus.
func (b *Bus) Enabled() bool { return b != nil && b.cfg.Enable }

// Config returns the bus configuration.
func (b *Bus) Config() Config { return b.cfg }

// Partitioned reports whether ep is currently partitioned.
func (b *Bus) Partitioned(ep Endpoint) bool { return b != nil && b.partitioned[ep] }

// ConnectedPods counts pod endpoints NOT currently partitioned, out of n.
func (b *Bus) ConnectedPods(n int) int {
	if b == nil {
		return n
	}
	connected := n
	for ep, on := range b.partitioned {
		if !on {
			continue
		}
		if _, ok := PodOf(ep); ok {
			connected--
		}
	}
	return connected
}

// Partition cuts ep off: messages from it never leave, messages to it
// are dropped at arrival. In-flight retries keep running, so a Call
// whose retry window outlasts the partition completes after the heal.
func (b *Bus) Partition(ep Endpoint) {
	if !b.Enabled() || b.partitioned[ep] {
		return
	}
	b.partitioned[ep] = true
	b.Partitions++
	b.tracer.Record(trace.EvPartition, 0, 0, epRef(ep))
}

// Heal lifts ep's partition and fires OnHeal (reconciliation).
func (b *Bus) Heal(ep Endpoint) {
	if !b.Enabled() || !b.partitioned[ep] {
		return
	}
	delete(b.partitioned, ep)
	b.Heals++
	b.tracer.Record(trace.EvHeal, 0, 0, epRef(ep))
	if b.OnHeal != nil {
		b.OnHeal(ep)
	}
}

// link returns the config of the from→to direction.
func (b *Bus) link(from, to Endpoint) LinkConfig {
	if len(b.cfg.Links) == 0 {
		return b.cfg.Default // no overrides: skip building the key
	}
	if l, ok := b.cfg.Links[LinkKey(from, to)]; ok {
		return l
	}
	return b.cfg.Default
}

// Call sends an at-least-once message whose effect is apply. On a nil
// or disabled bus, apply runs inline. Duplicates and retried deliveries
// apply at most once; if every attempt times out the message
// dead-letters and onDead, when non-nil, runs (once) instead. Note the
// at-least-once caveat: the effect may have applied even when onDead
// runs — a delivered message whose acknowledgments were all lost still
// dead-letters. Callers that cannot tolerate both running guard with
// their own instance token.
func (b *Bus) Call(from, to Endpoint, name string, apply, onDead func()) {
	if !b.Enabled() {
		apply()
		return
	}
	b.Sent++
	b.send(from, to, name, apply, onDead, false)
}

// Cast sends a best-effort one-way message (no ack, no retries, no dead
// letter) — the snapshot/gossip primitive. A lost cast is simply gone;
// the next periodic cast supersedes it.
func (b *Bus) Cast(from, to Endpoint, name string, apply func()) {
	if !b.Enabled() {
		apply()
		return
	}
	b.Casts++
	b.send(from, to, name, apply, nil, true)
}

// send issues one Call or Cast on an enabled bus. When the route is
// ideal — the forward link and, for a Call, the ack's reverse link
// fault-free, neither endpoint partitioned, no single-shot fault armed
// — the message is delivered (and a Call acked) inline, with no engine
// event and no random draw. Otherwise its first attempt leaves now.
func (b *Bus) send(from, to Endpoint, name string, apply, onDead func(), cast bool) {
	b.nextID++
	id := b.nextID
	if b.link(from, to).ideal() && (cast || b.link(to, from).ideal()) &&
		!b.partitioned[from] && !b.partitioned[to] &&
		b.DropNext == 0 && b.DupNext == 0 && b.DelayNext == 0 {
		b.Delivered++
		if cast {
			b.tracer.Record(trace.EvRPCSend, float64(id), 0, epRef(from), epRef(to))
			apply()
			return
		}
		b.Acks++
		b.tracer.Record(trace.EvRPCSend, float64(id), 1, epRef(from), epRef(to))
		b.tracer.Record(trace.EvRPCAck, float64(id), 0, epRef(from), epRef(to))
		apply()
		b.observeDelivery(0)
		return
	}
	m := &message{b: b, id: id, from: from, to: to, name: name, apply: apply, onDead: onDead,
		cast: cast, sentAt: b.eng.Now(), cause: b.tracer.CurrentCause()}
	m.onArrive = func() { b.tracer.WithCause(m.cause, m.deliver) }
	if !cast {
		m.onExpire = func() { b.tracer.WithCause(m.cause, m.expire) }
		m.onAck = func() { b.tracer.WithCause(m.cause, m.ack) }
	}
	m.attempt()
}

// fate draws one attempt's outcome over link l in a fixed order — loss,
// jitter, duplication, duplicate jitter — consuming the single-shot
// knobs: whether the attempt is lost (a partitioned sender loses it
// without a draw), its delay d, and whether a duplicate follows after
// d2.
func (b *Bus) fate(l LinkConfig, partitioned bool) (lost bool, d float64, dup bool, d2 float64) {
	if b.DropNext > 0 && !partitioned {
		b.DropNext--
		return true, 0, false, 0
	}
	if partitioned || l.LossProb > 0 && b.rng.Float64() < l.LossProb {
		return true, 0, false, 0
	}
	d = b.delay(l, b.DelayNext)
	b.DelayNext = 0
	if dup = b.DupNext > 0; dup {
		b.DupNext--
	} else if l.DupProb > 0 {
		dup = b.rng.Float64() < l.DupProb
	}
	if dup {
		d2 = b.delay(l, 0)
	}
	return false, d, dup, d2
}

// delay draws a one-way delay over link l: its fixed delay plus extra,
// plus Uniform(0, Jitter).
func (b *Bus) delay(l LinkConfig, extra float64) float64 {
	d := l.Delay + extra
	if l.Jitter > 0 {
		d += l.Jitter * b.rng.Float64()
	}
	return d
}

// attempt sends one copy of m over its forward link, schedules its
// delivery and any duplicate, and, for a Call, arms the attempt's retry
// timer.
func (m *message) attempt() {
	b := m.b
	from, to := epRef(m.from), epRef(m.to)
	if !m.cast {
		m.attempts++
	}
	if m.attempts > 1 {
		b.Retries++
		b.tracer.Record(trace.EvRPCRetry, float64(m.id), float64(m.attempts), from, to)
	} else {
		b.tracer.Record(trace.EvRPCSend, float64(m.id), float64(m.attempts), from, to)
	}
	lost, d, dup, d2 := b.fate(b.link(m.from, m.to), b.partitioned[m.from])
	if lost {
		b.Dropped++
		b.tracer.RecordErr(trace.EvRPCDrop, float64(m.id), float64(m.attempts), from, to)
	} else {
		b.eng.After(d, m.onArrive)
		if dup {
			b.Duplicates++
			b.eng.After(d2, m.onArrive)
		}
	}
	if m.cast {
		return
	}
	timeout := b.cfg.RetryTimeout * math.Pow(b.cfg.BackoffFactor, float64(m.attempts-1))
	if b.cfg.RetryJitter > 0 {
		timeout *= 1 + b.cfg.RetryJitter*b.rng.Float64()
	}
	m.timer = b.eng.After(timeout, m.onExpire)
}

// deliver lands one copy of m at its receiver. Receiver partitions are
// checked at arrival time. Every copy of a Cast applies (snapshot
// payloads are last-write-wins); a Call applies its first copy and acks
// each, and its idempotency flag makes later copies (duplicates,
// retries racing a lost ack) inert.
func (m *message) deliver() {
	b := m.b
	if b.partitioned[m.to] {
		b.Dropped++
		b.tracer.RecordErr(trace.EvRPCDrop, float64(m.id), float64(m.attempts), epRef(m.from), epRef(m.to))
		return
	}
	switch {
	case m.cast:
		b.Delivered++
		b.tracer.Record(trace.EvRPCDeliver, float64(m.id), 0, epRef(m.from), epRef(m.to))
		m.apply()
		return
	case m.done:
		// The Call already settled (acked, or dead-lettered with its
		// compensation run); a straggler copy must neither apply nor ack.
		return
	case m.applied:
		b.Deduped++
	default:
		m.applied = true
		b.Delivered++
		latency := b.eng.Now() - m.sentAt
		b.tracer.Record(trace.EvRPCDeliver, float64(m.id), latency, epRef(m.from), epRef(m.to))
		b.observeDelivery(latency)
		m.apply()
	}
	// The acknowledgment returns over the reverse link. A lost ack
	// leaves the sender retrying; the retry re-delivers, dedups, and
	// acks again.
	l := b.link(m.to, m.from)
	if l.LossProb > 0 && b.rng.Float64() < l.LossProb {
		b.Dropped++
		return
	}
	b.eng.After(b.delay(l, 0), m.onAck)
}

// ack settles m when an acknowledgment reaches its (unpartitioned)
// sender.
func (m *message) ack() {
	b := m.b
	if m.done {
		return
	}
	if b.partitioned[m.from] {
		b.Dropped++
		return
	}
	m.done = true
	b.Acks++
	b.eng.Cancel(m.timer)
	b.tracer.Record(trace.EvRPCAck, float64(m.id), b.eng.Now()-m.sentAt, epRef(m.from), epRef(m.to))
}

// expire fires when an attempt's deadline passes unacknowledged: resend
// with backoff, or declare a dead letter past the cap.
func (m *message) expire() {
	b := m.b
	if m.done {
		return
	}
	if m.attempts <= b.cfg.MaxRetries {
		m.attempt()
		return
	}
	m.done = true
	b.DeadLetters++
	b.DeadLetterLog = append(b.DeadLetterLog, DeadLetter{
		ID: m.id, From: m.from, To: m.to, Name: m.name,
		Attempts: m.attempts, T: b.eng.Now(),
	})
	b.tracer.RecordErr(trace.EvRPCDeadLetter, float64(m.id), float64(m.attempts), epRef(m.from), epRef(m.to))
	if m.onDead != nil {
		m.onDead()
	}
}

func (b *Bus) observeDelivery(latency float64) {
	if b.cfg.Registry != nil {
		b.cfg.Registry.Histogram("rpc.delivery_latency").Observe(latency)
	}
}
