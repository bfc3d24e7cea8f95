package core

import (
	"bytes"
	"testing"

	"megadc/internal/causal"
	"megadc/internal/cluster"
	"megadc/internal/trace"
)

// tracedConfig returns a config with a fresh flight recorder + time
// series attached.
func tracedConfig() (Config, *trace.Recorder) {
	cfg := DefaultConfig()
	rec := trace.NewRecorder(trace.DefaultRingSize)
	rec.TS = &trace.Timeseries{}
	cfg.Trace = rec
	return cfg, rec
}

// TestViolationCarriesTimeline is the flight-recorder acceptance test:
// corrupt the switch-load ledger for a VIP and require the resulting
// I4.SWITCH_LOAD_SUM violation to carry the recorded events touching
// that VIP, ending before the audit event itself.
func TestViolationCarriesTimeline(t *testing.T) {
	topo := SmallTopology()
	cfg, rec := tracedConfig()
	cfg.VIPsPerApp = 2
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := p.OnboardApp("flight", clusterSlice(), 3, Demand{CPU: 2, Mbps: 50})
	if err != nil {
		t.Fatal(err)
	}
	vip := p.Fabric.VIPsOfApp(a.ID)[0]
	vi := p.handleOf(vip)
	ledgerVIP(t, p, vi).reach++ // ledger's switch load no longer matches the switch table
	rep := p.Audit()
	if rep.OK() {
		t.Fatal("corruption not detected")
	}
	found := false
	for _, v := range rep.Violations {
		if v.Invariant != "I4.SWITCH_LOAD_SUM" {
			continue
		}
		found = true
		if len(v.Timeline) == 0 {
			t.Fatalf("violation %s has no timeline; recorder holds %d events", v.Invariant, rec.Len())
		}
		for _, ev := range v.Timeline {
			if !ev.Touches(trace.VIP(vip)) && !touchesAnyParsed(ev, v.Detail) {
				t.Errorf("timeline event %s does not touch the violating entity (%s)", ev.String(), v.Detail)
			}
			if ev.Type == trace.EvAudit {
				t.Error("timeline includes the audit event that reported it")
			}
		}
		// The violation's string form renders the timeline.
		if s := v.String(); !bytes.Contains([]byte(s), []byte("    | ")) {
			t.Errorf("String() lacks timeline lines:\n%s", s)
		}
	}
	if !found {
		t.Fatalf("no I4.SWITCH_LOAD_SUM violation:\n%s", rep)
	}
}

func touchesAnyParsed(ev trace.Event, detail string) bool {
	for _, ref := range trace.ParseRefs(detail) {
		if ev.Touches(ref) {
			return true
		}
	}
	return false
}

func clusterSlice() cluster.Resources {
	return cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}
}

// TestTraceSampler checks the Start-scheduled sampler fills the time
// series on the configured grid with sane values.
func TestTraceSampler(t *testing.T) {
	topo := SmallTopology()
	cfg, rec := tracedConfig()
	cfg.TraceSampleEvery = 5
	cfg.VIPsPerApp = 2
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := p.OnboardApp("sampled", clusterSlice(), 2, Demand{CPU: 2, Mbps: 40}); err != nil {
		t.Fatal(err)
	}
	p.Start()
	p.Eng.RunFor(60)
	if rec.TS.Len() < 12 {
		t.Fatalf("samples = %d, want >= 12 over 60s at 5s period", rec.TS.Len())
	}
	last := -1.0
	for _, s := range rec.TS.Samples {
		if s.T <= last {
			t.Fatalf("sample times not strictly increasing: %v after %v", s.T, last)
		}
		last = s.T
		if s.VIPs <= 0 || s.RIPs <= 0 {
			t.Errorf("sample at t=%v has no VIPs/RIPs: %+v", s.T, s)
		}
		if s.Satisfaction < 0 || s.Satisfaction > 1+1e-9 {
			t.Errorf("satisfaction out of range at t=%v: %v", s.T, s.Satisfaction)
		}
	}
}

// TestTracedRunDeterminism runs the seeded chaos scenario twice with
// tracing on and requires byte-identical event logs and time series —
// the guarantee that a trace from a failing run is a faithful replayable
// artifact.
func TestTracedRunDeterminism(t *testing.T) {
	const nOps = 60
	run := func() (*Platform, *trace.Recorder) {
		cfg, rec := tracedConfig()
		cfg.AuditEvery = 10
		p := runPropagationScenario(t, cfg, nOps)
		return p, rec
	}
	pa, ra := run()
	pb, rb := run()
	if d := pa.captureState().diff(pb.captureState()); d != "" {
		t.Fatalf("traced runs diverged: %s", d)
	}
	var ea, eb, ta, tb bytes.Buffer
	if err := ra.WriteEvents(&ea); err != nil {
		t.Fatal(err)
	}
	if err := rb.WriteEvents(&eb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ea.Bytes(), eb.Bytes()) {
		t.Error("event logs differ across identically-seeded runs")
	}
	if ra.Total() == 0 {
		t.Error("scenario recorded no events")
	}
	if err := ra.TS.WriteCSV(&ta); err != nil {
		t.Fatal(err)
	}
	if err := rb.TS.WriteCSV(&tb); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(ta.Bytes(), tb.Bytes()) {
		t.Error("time series differ across identically-seeded runs")
	}
}

// TestTracingDoesNotPerturb runs the same seeded scenario without
// tracing, with tracing, and with tracing plus the causal
// decision-provenance assembler, and requires identical end state: the
// recorder and its observers never change a decision (EXPERIMENTS.md
// relies on this to compare traced and untraced runs).
func TestTracingDoesNotPerturb(t *testing.T) {
	const nOps = 60
	plain := DefaultConfig()
	plain.AuditEvery = 10
	a := runPropagationScenario(t, plain, nOps)
	traced, _ := tracedConfig()
	traced.AuditEvery = 10
	b := runPropagationScenario(t, traced, nOps)
	if d := a.captureState().diff(b.captureState()); d != "" {
		t.Fatalf("tracing perturbed the run: %s", d)
	}
	if sa, sb := a.TotalSatisfaction(), b.TotalSatisfaction(); sa != sb {
		t.Fatalf("satisfaction differs with tracing: %v != %v", sa, sb)
	}
	withCausal, _ := tracedConfig()
	withCausal.AuditEvery = 10
	withCausal.Causal = causal.New(nil)
	c := runPropagationScenario(t, withCausal, nOps)
	if d := a.captureState().diff(c.captureState()); d != "" {
		t.Fatalf("causal assembler perturbed the run: %s", d)
	}
	if sa, sc := a.TotalSatisfaction(), c.TotalSatisfaction(); sa != sc {
		t.Fatalf("satisfaction differs with causal assembler: %v != %v", sa, sc)
	}
	if len(withCausal.Causal.Causes()) == 0 {
		t.Fatal("causal assembler saw no decisions — scenario bypassed provenance")
	}
}
