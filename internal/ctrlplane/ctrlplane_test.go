package ctrlplane

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
	"testing"

	"megadc/internal/sim"
	"megadc/internal/trace"
)

func enabledCfg() Config {
	cfg := DefaultConfig()
	cfg.Enable = true
	cfg.RetryJitter = 0 // exact timings in these tests
	return cfg
}

// A nil or disabled bus is the synchronous control plane: effects apply
// inline, immediately.
func TestDisabledAppliesInline(t *testing.T) {
	var nilBus *Bus
	ran := 0
	nilBus.Call(Global, CSM, "x", func() { ran++ }, nil)
	nilBus.Cast(Global, CSM, "x", func() { ran++ })
	if ran != 2 {
		t.Fatalf("nil bus ran %d effects inline, want 2", ran)
	}
	if nilBus.Enabled() || nilBus.Partitioned(Global) {
		t.Fatal("nil bus must report disabled and unpartitioned")
	}

	eng := sim.New(1)
	b := New(eng, Config{}) // Enable false
	b.Call(Global, CSM, "x", func() { ran++ }, nil)
	if ran != 3 || b.Sent != 0 {
		t.Fatalf("disabled bus: ran=%d sent=%d", ran, b.Sent)
	}
}

// The ideal fast path must schedule zero engine events and draw zero
// randomness, so an enabled-but-ideal bus cannot perturb a seeded run.
func TestIdealFastPathIsInert(t *testing.T) {
	ref := sim.New(42)
	eng := sim.New(42)
	b := New(eng, enabledCfg())

	applied := 0
	for i := 0; i < 5; i++ {
		b.Call(Global, Pod(i), "knob", func() { applied++ }, nil)
		b.Cast(Pod(i), Global, "snap", func() { applied++ })
	}
	if applied != 10 {
		t.Fatalf("applied = %d, want 10 inline", applied)
	}
	eng.RunUntil(1000)
	ref.RunUntil(1000)
	if eng.Steps() != ref.Steps() {
		t.Fatalf("ideal bus scheduled events: steps %d vs %d", eng.Steps(), ref.Steps())
	}
	if eng.Rand().Int63() != ref.Rand().Int63() {
		t.Fatal("ideal bus perturbed the engine RNG stream")
	}
	if b.Sent != 5 || b.Acks != 5 || b.Delivered != 10 || b.Casts != 5 {
		t.Fatalf("counters: %+v", *b)
	}
}

// Delayed delivery: effect at t=delay, ack at t=2·delay, retry timer
// canceled. (Delay 4 keeps the round trip strictly inside the 10 s
// first-attempt deadline — at exactly 2·delay == RetryTimeout the
// earlier-scheduled timer wins the same-instant tie and retries.)
func TestDelayedCallDeliversAndAcks(t *testing.T) {
	eng := sim.New(1)
	cfg := enabledCfg()
	cfg.Default = LinkConfig{Delay: 4}
	b := New(eng, cfg)

	var appliedAt float64 = -1
	eng.At(0, func() {
		b.Call(Global, CSM, "knob", func() { appliedAt = eng.Now() }, nil)
	})
	eng.RunUntil(1000)
	if appliedAt != 4 {
		t.Fatalf("applied at t=%v, want 4", appliedAt)
	}
	if b.Acks != 1 || b.Retries != 0 || b.DeadLetters != 0 {
		t.Fatalf("acks=%d retries=%d dead=%d", b.Acks, b.Retries, b.DeadLetters)
	}
}

// Total forward loss: every attempt drops, backoff escalates, and past
// the cap the message dead-letters with the effect never applied and
// the compensation hook run exactly once.
func TestTotalLossDeadLetters(t *testing.T) {
	eng := sim.New(1)
	cfg := enabledCfg()
	cfg.Links = map[string]LinkConfig{LinkKey(Global, CSM): {LossProb: 1}}
	b := New(eng, cfg)

	applied, dead := 0, 0
	eng.At(0, func() {
		b.Call(Global, CSM, "knob", func() { applied++ }, func() { dead++ })
	})
	eng.RunUntil(100000)
	if applied != 0 || dead != 1 {
		t.Fatalf("applied=%d dead=%d, want 0/1", applied, dead)
	}
	wantAttempts := 1 + cfg.MaxRetries
	if b.Retries != int64(cfg.MaxRetries) || b.Dropped != int64(wantAttempts) {
		t.Fatalf("retries=%d dropped=%d", b.Retries, b.Dropped)
	}
	if len(b.DeadLetterLog) != 1 || b.DeadLetterLog[0].Attempts != wantAttempts ||
		b.DeadLetterLog[0].Name != "knob" {
		t.Fatalf("dead letter log: %+v", b.DeadLetterLog)
	}
	// Backoff 10+20+40+80+160+320+640 = 1270 (jitter off).
	if b.DeadLetterLog[0].T != 1270 {
		t.Fatalf("dead letter at t=%v, want 1270", b.DeadLetterLog[0].T)
	}
}

// Lost acks: the effect applies on the first delivery; every retry
// re-delivers and is suppressed by the idempotency key. With the ack
// path severed the call still dead-letters — at-least-once, and the
// caller's token must tolerate apply+onDead both running.
func TestLostAcksDedupRetries(t *testing.T) {
	eng := sim.New(1)
	cfg := enabledCfg()
	cfg.Links = map[string]LinkConfig{LinkKey(CSM, Global): {LossProb: 1}}
	b := New(eng, cfg)

	applied := 0
	eng.At(0, func() { b.Call(Global, CSM, "knob", func() { applied++ }, nil) })
	eng.RunUntil(100000)
	if applied != 1 {
		t.Fatalf("applied %d times, want exactly 1 (idempotency)", applied)
	}
	if b.Deduped != int64(cfg.MaxRetries) {
		t.Fatalf("deduped=%d, want %d", b.Deduped, cfg.MaxRetries)
	}
	if b.DeadLetters != 1 || b.Acks != 0 {
		t.Fatalf("dead=%d acks=%d", b.DeadLetters, b.Acks)
	}
}

// An in-flight duplicate delivers twice but applies once.
func TestDuplicateAppliesOnce(t *testing.T) {
	eng := sim.New(1)
	cfg := enabledCfg()
	cfg.Default = LinkConfig{Delay: 2}
	b := New(eng, cfg)
	b.DupNext = 1

	applied := 0
	eng.At(0, func() { b.Call(Global, CSM, "knob", func() { applied++ }, nil) })
	eng.RunUntil(1000)
	if applied != 1 || b.Duplicates != 1 || b.Deduped != 1 {
		t.Fatalf("applied=%d dups=%d deduped=%d", applied, b.Duplicates, b.Deduped)
	}
	if b.DeadLetters != 0 {
		t.Fatalf("dead letters: %d", b.DeadLetters)
	}
}

// Partitioning the receiver drops arrivals; the retry loop outlives the
// partition and the call completes after the heal, with OnHeal observed.
func TestPartitionHealCompletesCall(t *testing.T) {
	eng := sim.New(1)
	cfg := enabledCfg()
	cfg.Default = LinkConfig{Delay: 1}
	b := New(eng, cfg)

	var healed []Endpoint
	b.OnHeal = func(ep Endpoint) { healed = append(healed, ep) }

	applied := 0
	eng.At(0, func() { b.Partition(Pod(3)) })
	eng.At(5, func() { b.Call(Global, Pod(3), "deploy", func() { applied++ }, nil) })
	eng.At(100, func() { b.Heal(Pod(3)) })
	eng.RunUntil(100000)

	if applied != 1 || b.DeadLetters != 0 {
		t.Fatalf("applied=%d dead=%d: call must survive a partition shorter than the retry window", applied, b.DeadLetters)
	}
	if len(healed) != 1 || healed[0] != Pod(3) {
		t.Fatalf("OnHeal saw %v", healed)
	}
	if b.Partitions != 1 || b.Heals != 1 {
		t.Fatalf("partitions=%d heals=%d", b.Partitions, b.Heals)
	}
}

// A partitioned sender cannot get messages out either.
func TestPartitionedSenderDrops(t *testing.T) {
	eng := sim.New(1)
	cfg := enabledCfg()
	cfg.Default = LinkConfig{Delay: 1}
	b := New(eng, cfg)

	eng.At(0, func() {
		b.Partition(Pod(0))
		b.Cast(Pod(0), Global, "snap", func() { t.Error("cast escaped a partitioned sender") })
	})
	eng.RunUntil(100)
	if b.Dropped != 1 {
		t.Fatalf("dropped=%d", b.Dropped)
	}
	if b.ConnectedPods(4) != 3 {
		t.Fatalf("ConnectedPods = %d, want 3", b.ConnectedPods(4))
	}
}

// Casts are fire-and-forget: a lost cast never retries and never
// dead-letters.
func TestCastIsBestEffort(t *testing.T) {
	eng := sim.New(1)
	cfg := enabledCfg()
	cfg.Default = LinkConfig{Delay: 1, LossProb: 1}
	b := New(eng, cfg)

	eng.At(0, func() { b.Cast(Pod(1), Global, "snap", func() { t.Error("lost cast applied") }) })
	eng.RunUntil(10000)
	if b.Dropped != 1 || b.Retries != 0 || b.DeadLetters != 0 {
		t.Fatalf("dropped=%d retries=%d dead=%d", b.Dropped, b.Retries, b.DeadLetters)
	}
}

// Same seed, same traffic → byte-identical outcome; different bus seed
// → (with these loss rates) a different trajectory. The bus's RNG is
// its own, so engine randomness stays untouched either way. The seed-11
// trajectory is also pinned to constants, so a refactor of the bus that
// reorders a random draw, an engine event or a trace record fails here
// even when it stays self-consistent.
func TestSeededReproducibility(t *testing.T) {
	type outcome struct{ order, counters, events string }
	run := func(busSeed int64) outcome {
		eng := sim.New(7)
		cfg := enabledCfg()
		cfg.Seed = busSeed
		cfg.RetryJitter = 0.1
		cfg.Default = LinkConfig{Delay: 2, Jitter: 1, LossProb: 0.3, DupProb: 0.1}
		cfg.Links = map[string]LinkConfig{
			LinkKey(CSM, Global): {Delay: 1, Jitter: 0.5, LossProb: 0.5},  // acks
			LinkKey(Global, DNS): {Delay: 3, LossProb: 0.8, DupProb: 0.3}, // dead letters
		}
		b := New(eng, cfg)
		rec := trace.NewRecorder(1 << 14)
		rec.Now = eng.Now
		b.SetTracer(rec)
		var order strings.Builder
		note := func(tag string, i int) func() {
			return func() { fmt.Fprintf(&order, "%s%d@%g ", tag, i, eng.Now()) }
		}
		eng.At(50, func() { b.Partition(CSM) })
		eng.At(90, func() { b.Heal(CSM) })
		eng.At(30, func() { b.Partition(Pod(1)) })
		eng.At(60, func() { b.Heal(Pod(1)) })
		for i := 0; i < 40; i++ {
			i := i
			eng.At(float64(i*3), func() {
				switch i {
				case 5:
					b.DropNext = 2
				case 10:
					b.DupNext = 1
				case 15:
					b.DelayNext = 7.5
				}
				rec.WithCause(rec.NewCause(), func() {
					b.Call(Global, CSM, "knob", note("c", i), nil)
					if i%8 == 0 {
						b.Call(Global, DNS, "dns", note("d", i), note("x", i))
					}
					if i%5 == 0 {
						if i == 20 {
							b.DupNext = 1
						}
						b.Cast(Pod(i%3), Global, "snap", note("s", i))
					}
				})
			})
		}
		eng.RunUntil(1e6)
		var events strings.Builder
		if err := rec.WriteEvents(&events); err != nil {
			t.Fatal(err)
		}
		return outcome{
			order: order.String(),
			counters: fmt.Sprintf("sent=%d casts=%d d=%d dedup=%d drop=%d dup=%d retry=%d ack=%d dead=%d|eng=%d",
				b.Sent, b.Casts, b.Delivered, b.Deduped, b.Dropped, b.Duplicates, b.Retries, b.Acks,
				b.DeadLetters, eng.Rand().Int63()),
			events: events.String(),
		}
	}
	a, b2 := run(11), run(11)
	if a != b2 {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b2)
	}
	if run(12) == a {
		t.Fatal("different bus seed produced an identical faulty trajectory (suspicious)")
	}
	fnv64 := func(s string) uint64 {
		h := fnv.New64a()
		h.Write([]byte(s))
		return h.Sum64()
	}
	const (
		wantOrder    = 0x98d6904ac95723c8
		wantCounters = "sent=45 casts=8 d=51 dedup=41 drop=123 dup=16 retry=105 ack=43 dead=2|eng=8475284246537043955"
		wantEvents   = 0xbd430b17df6487f5
	)
	if got := fnv64(a.order); got != wantOrder {
		t.Errorf("apply order hash %#x, want %#x; order:\n%s", got, uint64(wantOrder), a.order)
	}
	if a.counters != wantCounters {
		t.Errorf("counters:\n got %s\nwant %s", a.counters, wantCounters)
	}
	if got := fnv64(a.events); got != wantEvents {
		t.Errorf("event log hash %#x, want %#x; log:\n%s", got, uint64(wantEvents), a.events)
	}
}

// Pooled message records with callbacks bound once make a Call
// allocation-free after warm-up, however many attempts it takes: a
// retry reuses the bound delivery and timeout callbacks, and the next
// Call reuses the finished message's record.
func TestCallAllocsIndependentOfAttempts(t *testing.T) {
	eng := sim.New(1)
	cfg := enabledCfg()
	cfg.Default = LinkConfig{Delay: 1}
	b := New(eng, cfg)
	apply := func() {}
	call := func(k int) func() {
		return func() {
			b.DropNext = k
			b.Call(Global, CSM, "knob", apply, nil)
			eng.Run()
		}
	}
	call(4)() // warm the engine's heap and slot table, and the record pool
	var allocs [3]float64
	for i, k := range []int{0, 1, 4} {
		allocs[i] = testing.AllocsPerRun(50, call(k))
	}
	if allocs != [3]float64{} {
		t.Fatalf("allocations per Call with 0, 1 and 4 dropped attempts = %v, want 0 each", allocs)
	}
	if b.DeadLetters != 0 {
		t.Fatalf("dead letters: %d", b.DeadLetters)
	}
}

// TestMessageRecordsRecycled runs Calls and Casts through every fate —
// loss, duplication, lost acks, a partition, dead letters — and checks
// that every record goes back to the pool exactly when the run drains,
// and that records are reused rather than allocated afresh.
func TestMessageRecordsRecycled(t *testing.T) {
	eng := sim.New(1)
	cfg := enabledCfg()
	cfg.MaxRetries = 2
	cfg.Default = LinkConfig{Delay: 0.5, Jitter: 0.5, LossProb: 0.3, DupProb: 0.3}
	cfg.Seed = 3
	b := New(eng, cfg)
	applied, dead := 0, 0
	for i := 0; i < 200; i++ {
		eng.After(float64(i), func() {
			if i%5 == 0 {
				b.Cast(Pod(i%3), Global, "snapshot", func() { applied++ })
				return
			}
			b.Call(Global, Pod(i%3), "knob", func() { applied++ }, func() { dead++ })
		})
	}
	eng.After(50, func() { b.Partition(Pod(1)) })
	eng.After(90, func() { b.Heal(Pod(1)) })
	eng.Run()
	if n := b.msgs.Live(); n != 0 {
		t.Errorf("%d message records still checked out after the run drained", n)
	}
	if b.msgs.Idle() >= 200 {
		t.Errorf("%d records allocated for 200 messages: none reused", b.msgs.Idle())
	}
	if b.DeadLetters == 0 || b.Deduped == 0 || b.Duplicates == 0 || b.Retries == 0 {
		t.Errorf("a fate went unexercised: dead %d, deduped %d, dups %d, retries %d",
			b.DeadLetters, b.Deduped, b.Duplicates, b.Retries)
	}
	if int64(dead) != b.DeadLetters || applied == 0 {
		t.Errorf("compensations %d for %d dead letters; %d applies", dead, b.DeadLetters, applied)
	}
}

func TestValidate(t *testing.T) {
	cfg := enabledCfg()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default enabled config invalid: %v", err)
	}
	bad := enabledCfg()
	bad.Default.LossProb = 1.5
	if bad.Validate() == nil {
		t.Fatal("LossProb 1.5 must fail validation")
	}
	bad = enabledCfg()
	bad.RetryTimeout = 0
	if bad.Validate() == nil {
		t.Fatal("RetryTimeout 0 must fail validation")
	}
	off := Config{}
	if err := off.Validate(); err != nil {
		t.Fatalf("disabled zero config must validate: %v", err)
	}
	// NaN and ±Inf: a NaN delay panics the engine mid-run, a NaN
	// probability never fires, a NaN snapshot period turns snapshots off.
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		edit func(*Config)
	}{
		{"delay NaN", func(c *Config) { c.Default.Delay = nan }},
		{"delay +Inf", func(c *Config) { c.Default.Delay = inf }},
		{"jitter NaN", func(c *Config) { c.Default.Jitter = nan }},
		{"jitter -Inf", func(c *Config) { c.Default.Jitter = -inf }},
		{"loss NaN", func(c *Config) { c.Default.LossProb = nan }},
		{"dup NaN", func(c *Config) { c.Default.DupProb = nan }},
		{"dup -0.1", func(c *Config) { c.Default.DupProb = -0.1 }},
		{"link override delay NaN", func(c *Config) { c.Links = map[string]LinkConfig{LinkKey(CSM, Global): {Delay: nan}} }},
		{"link override loss +Inf", func(c *Config) { c.Links = map[string]LinkConfig{LinkKey(CSM, Global): {LossProb: inf}} }},
		{"retry timeout NaN", func(c *Config) { c.RetryTimeout = nan }},
		{"retry timeout +Inf", func(c *Config) { c.RetryTimeout = inf }},
		{"backoff NaN", func(c *Config) { c.BackoffFactor = nan }},
		{"backoff +Inf", func(c *Config) { c.BackoffFactor = inf }},
		{"backoff 0.5", func(c *Config) { c.BackoffFactor = 0.5 }},
		{"retry jitter NaN", func(c *Config) { c.RetryJitter = nan }},
		{"retry jitter +Inf", func(c *Config) { c.RetryJitter = inf }},
		{"snapshot NaN", func(c *Config) { c.SnapshotEvery = nan }},
		{"snapshot +Inf", func(c *Config) { c.SnapshotEvery = inf }},
		{"snapshot -1", func(c *Config) { c.SnapshotEvery = -1 }},
		{"max retries -1", func(c *Config) { c.MaxRetries = -1 }},
	} {
		cfg := enabledCfg()
		tc.edit(&cfg)
		if cfg.Validate() == nil {
			t.Errorf("%s: Validate accepted it", tc.name)
		}
	}
}

func TestPodEndpointRoundTrip(t *testing.T) {
	for _, id := range []int{0, 3, 17} {
		got, ok := PodOf(Pod(id))
		if !ok || got != id {
			t.Fatalf("PodOf(Pod(%d)) = %d,%v", id, got, ok)
		}
	}
	if _, ok := PodOf(Global); ok {
		t.Fatal("PodOf(Global) must be false")
	}
}
