// Package core implements the paper's contribution: the two-level
// hierarchical resource-management architecture for a mega data center.
// A Platform ties together the substrates (cluster, LB switch fabric,
// access network, DNS, VIP/RIP manager); PodManagers run local resource
// allocation inside each logical pod; the GlobalManager monitors pods,
// LB switches, and access links, and actuates the paper's control knobs:
//
//	A. selective VIP exposure        (Section IV-A, via DNS weights)
//	B. dynamic VIP transfer          (Section IV-B, between LB switches)
//	C. server transfer between pods  (Section IV-C)
//	D. dynamic application deployment(Section IV-D)
//	E. VM capacity adjustment        (Section IV-E, pod-local)
//	F. RIP weight adjustment         (Section IV-F, intra- and inter-pod)
package core

import (
	"fmt"
	"math"
	"strings"

	"megadc/internal/causal"
	"megadc/internal/ctrlplane"
	"megadc/internal/spans"
	"megadc/internal/trace"
)

// Knob identifies one of the paper's control knobs, for ablation.
type Knob int

// The control knobs of Section IV.
const (
	KnobSelectiveExposure Knob = iota // A (ParseKnobs maps the letters in this order)
	KnobVIPTransfer                   // B
	KnobServerTransfer                // C
	KnobAppDeployment                 // D
	KnobVMResize                      // E
	KnobRIPWeights                    // F
	numKnobs
)

func (k Knob) String() string {
	switch k {
	case KnobSelectiveExposure:
		return "selective-vip-exposure"
	case KnobVIPTransfer:
		return "vip-transfer"
	case KnobServerTransfer:
		return "server-transfer"
	case KnobAppDeployment:
		return "app-deployment"
	case KnobVMResize:
		return "vm-resize"
	case KnobRIPWeights:
		return "rip-weight-adjust"
	}
	return fmt.Sprintf("Knob(%d)", int(k))
}

// Config holds the thresholds, latencies, and knob enables of the
// resource-management platform. Latencies are in simulated seconds and
// reflect the paper's agility claims: switch reconfiguration and VM
// resize take seconds; VM deployment and migration take minutes.
type Config struct {
	// Knob enables, indexed by Knob. All on by default.
	Knobs [numKnobs]bool

	// Pod sizing targets (Section III-A: ~5,000 servers / ~10,000 VMs).
	MaxPodServers int
	MaxPodVMs     int

	// Utilization thresholds.
	PodOverloadUtil    float64 // pod CPU demand/capacity above this → act
	PodTargetUtil      float64 // bring overloaded pods down to this
	PodUnderloadUtil   float64 // donor pods must stay below this
	LinkOverloadUtil   float64 // access-link utilization above this → knob A
	SwitchOverloadUtil float64 // LB switch utilization above this → knob B
	VMHeadroom         float64 // knob E grows slices to demand × (1+headroom)

	// Operation latencies (simulated seconds).
	SwitchReconfigLatency float64 // programmatic LB switch reconfiguration
	DNSUpdateLatency      float64 // authoritative DNS weight change
	VMResizeLatency       float64 // hot slice adjustment
	VMDeployLatency       float64 // new VM instance deployment
	VMMigrateLatency      float64 // live VM migration
	VacateLatencyPerVM    float64 // per-VM cost of vacating a server

	// Control loop periods (simulated seconds).
	PodControlInterval    float64
	GlobalControlInterval float64

	// VIPsPerApp is the default number of VIPs assigned per application
	// (Section IV-A: three on average).
	VIPsPerApp int

	// DrainMargin is how long past the DNS TTL the global manager waits
	// before attempting a VIP transfer (knob B).
	DrainMargin float64

	// CostAwareExposure extends knob A with the paper's business
	// objective ("control the traffic among the different access ISPs
	// according to ... different link usage costs"): when no link is
	// overloaded, exposure shifts from expensive links toward cheaper
	// ones, as long as the cheap link stays below CostShiftCeiling.
	CostAwareExposure bool
	CostShiftCeiling  float64

	// RecycleUnusedVIPs enables the paper's route hygiene: "the platform
	// can periodically withdraw blocks of unused VIPs from the old
	// access routers and re-advertise them through lightly loaded access
	// links." A VIP is unused when it has no DNS exposure and no
	// traffic.
	RecycleUnusedVIPs bool

	// PropagateFullEvery forces a full demand recompute every Nth
	// Propagate call as a safety net under incremental propagation.
	// 0 uses the default (256); 1 makes every Propagate a full
	// recompute; negative disables the periodic fallback entirely.
	// Because incremental propagation is bit-exact against the full
	// path, this setting changes cost, never results.
	PropagateFullEvery int

	// PropagateWorkers sets the worker count for the parallel full
	// recompute fan-out (0 = GOMAXPROCS). Results are bit-for-bit
	// identical for any worker count: workers only fill disjoint
	// per-app buffers, which are applied sequentially in sorted order.
	PropagateWorkers int

	// PropagateDebugCheck cross-checks every incremental Propagate
	// against a full recompute and panics on any bitwise state
	// difference. Test-only: it makes every tick O(platform).
	PropagateDebugCheck bool

	// AuditEvery runs the cross-layer invariant auditor (Platform.Audit,
	// DESIGN.md §9) after every Nth Propagate call. 0 disables periodic
	// auditing entirely — the hook then costs nothing. Violations
	// accumulate on the platform as structured reports (AuditViolations,
	// AuditErr); the auditor never panics.
	AuditEvery int

	// AuditOverloadUtil, when positive, makes the auditor flag any link
	// or switch whose utilization exceeds it (I5.LINK_OVERLOAD /
	// I5.SWITCH_OVERLOAD). Off by default: several experiments overload
	// links on purpose (EXPERIMENTS.md E4/E9), so a blanket ceiling
	// would flag intended behavior.
	AuditOverloadUtil float64

	// Trace, when non-nil, is the flight recorder: the platform wires it
	// into every substrate (VIP/RIP manager, switch fabric, drain
	// protocol, pod/global manager decisions, health transitions) and
	// attaches per-entity event timelines to audit violation reports.
	// Nil (the default) disables tracing entirely — the disabled path
	// adds no work and no allocations to the steady-state Propagate tick
	// (guarded by TestPropagateSteadyTickAllocFree).
	Trace *trace.Recorder

	// TraceSampleEvery is the period (simulated seconds) of the traced
	// run's time-series sampler (satisfaction, VIP/RIP counts, queue
	// depth, utilizations, fault counts). Only consulted when Trace is
	// set; 0 falls back to PodControlInterval.
	TraceSampleEvery float64

	// Spans, when non-nil, turns flight-recorder events into
	// control-plane latency histograms (queue waits, drain durations,
	// detect→repair latencies, DNS convergence — DESIGN.md §11). The
	// platform subscribes it to the recorder's OnEvent hook, creating a
	// recorder if Trace is nil. A pure observer: seeded runs end
	// byte-identical with spans on or off
	// (TestObservabilityDoesNotPerturb).
	Spans *spans.Tracker

	// Causal, when non-nil, is the decision-provenance assembler
	// (DESIGN.md §16): the platform subscribes it to the recorder's
	// OnEvent hook (creating a recorder if Trace is nil, like Spans) and
	// it reconstructs per-decision span trees — decision → RPC attempts →
	// queue wait → apply → DNS converge — keyed by CauseID. A pure
	// observer: seeded runs end byte-identical with it on or off
	// (TestTracingDoesNotPerturb), and with it wired but no decisions
	// firing the steady Propagate tick stays allocation-free.
	Causal *causal.Assembler

	// Policy selects the pluggable control policy (internal/policy,
	// DESIGN.md §15) by registry name: it drives VIP placement, RIP→VIP
	// assignment, VIP transfer targets, and the knob C/D pod choices.
	// Empty resolves to "greedy" — the extracted historical strategy,
	// byte-identical to the pre-framework inline scans. Unknown names
	// fail NewPlatform.
	Policy string

	// SerializeReconfig routes inter-pod weight adjustments (knob F) and
	// drain-driven VIP transfers (knob B) through the VIP/RIP request
	// queue as an engine-driven serialized pipeline — the paper's single
	// slow CSM configuration channel — instead of applying them inline.
	// Each request occupies the pipeline for SwitchReconfigLatency;
	// queued requests accumulate measurable queue wait. Off by default:
	// the inline path keeps historical behavior (and historical traces)
	// unchanged.
	SerializeReconfig bool

	// Ctrl configures the fallible asynchronous control plane (DESIGN.md
	// §12): when Ctrl.Enable is set, every control RPC between the global
	// manager, pod managers, and the viprip/dnsctl pipeline traverses a
	// deterministic message bus with configurable per-link delay, seeded
	// jitter, loss, duplication, and partition windows, at-least-once
	// retry with exponential backoff, idempotency keys, and typed dead
	// letters. Disabled (the default), control stays synchronous; enabled
	// with all-zero link configs, runs are byte-identical to the
	// synchronous path (TestSyncEquivalence).
	Ctrl ctrlplane.Config
}

// DefaultConfig returns the configuration used throughout the
// experiments, matching the paper's stated targets.
func DefaultConfig() Config {
	c := Config{
		MaxPodServers:         5000,
		MaxPodVMs:             10000,
		PodOverloadUtil:       0.85,
		PodTargetUtil:         0.70,
		PodUnderloadUtil:      0.60,
		LinkOverloadUtil:      0.90,
		SwitchOverloadUtil:    0.90,
		VMHeadroom:            0.20,
		SwitchReconfigLatency: 3, // "configuring the load balancing switches takes only several seconds"
		DNSUpdateLatency:      1,
		VMResizeLatency:       2,   // hot-add is near-instant
		VMDeployLatency:       120, // VM provisioning takes minutes
		VMMigrateLatency:      30,
		VacateLatencyPerVM:    30,
		PodControlInterval:    10,
		GlobalControlInterval: 30,
		VIPsPerApp:            3,
		DrainMargin:           5,
		CostAwareExposure:     false, // opt-in: interacts with balance objectives
		CostShiftCeiling:      0.70,
		RecycleUnusedVIPs:     true,
		Ctrl:                  ctrlplane.DefaultConfig(),
	}
	for k := range c.Knobs {
		c.Knobs[k] = true
	}
	return c
}

// WithKnobs returns a copy of the config with only the listed knobs
// enabled — the ablation helper used by E7/E8.
func (c Config) WithKnobs(knobs ...Knob) Config {
	out := c
	for k := range out.Knobs {
		out.Knobs[k] = false
	}
	for _, k := range knobs {
		out.Knobs[k] = true
	}
	return out
}

// ParseKnobs parses a comma-separated list of the paper's knob letters
// A..F (case-insensitive), as the command-line -knobs flag takes them.
func ParseKnobs(s string) ([]Knob, error) {
	var ks []Knob
	for _, c := range strings.Split(strings.ToUpper(s), ",") {
		c = strings.TrimSpace(c)
		if len(c) != 1 || c[0] < 'A' || c[0] >= 'A'+byte(numKnobs) {
			return nil, fmt.Errorf("core: unknown knob %q", c)
		}
		ks = append(ks, Knob(c[0]-'A'))
	}
	return ks, nil
}

// Enabled reports whether knob k is on.
func (c *Config) Enabled(k Knob) bool { return c.Knobs[k] }

// Validate checks configuration sanity.
func (c *Config) Validate() error {
	if c.MaxPodServers <= 0 || c.MaxPodVMs <= 0 {
		return fmt.Errorf("core: pod size limits must be positive")
	}
	if c.PodTargetUtil > c.PodOverloadUtil {
		return fmt.Errorf("core: PodTargetUtil %v > PodOverloadUtil %v", c.PodTargetUtil, c.PodOverloadUtil)
	}
	if c.VIPsPerApp <= 0 {
		return fmt.Errorf("core: VIPsPerApp must be positive")
	}
	if !(c.PodControlInterval > 0) || !(c.GlobalControlInterval > 0) ||
		math.IsInf(c.PodControlInterval, 0) || math.IsInf(c.GlobalControlInterval, 0) {
		return fmt.Errorf("core: control intervals must be positive and finite")
	}
	// A negative or NaN delay would schedule an engine event in the past
	// or break the event heap's order; an infinite one never fires.
	for _, d := range []struct {
		name string
		v    float64
	}{
		{"SwitchReconfigLatency", c.SwitchReconfigLatency},
		{"DNSUpdateLatency", c.DNSUpdateLatency},
		{"VMResizeLatency", c.VMResizeLatency},
		{"VMDeployLatency", c.VMDeployLatency},
		{"VMMigrateLatency", c.VMMigrateLatency},
		{"VacateLatencyPerVM", c.VacateLatencyPerVM},
		{"DrainMargin", c.DrainMargin},
		{"TraceSampleEvery", c.TraceSampleEvery},
	} {
		if !(d.v >= 0) || math.IsInf(d.v, 0) {
			return fmt.Errorf("core: %s must be finite and >= 0, got %v", d.name, d.v)
		}
	}
	if c.PropagateWorkers < 0 {
		return fmt.Errorf("core: PropagateWorkers must be >= 0, got %d", c.PropagateWorkers)
	}
	if c.AuditEvery < 0 {
		return fmt.Errorf("core: AuditEvery must be >= 0, got %d", c.AuditEvery)
	}
	if err := c.Ctrl.Validate(); err != nil {
		return err
	}
	return nil
}
