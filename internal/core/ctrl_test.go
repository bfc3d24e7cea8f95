package core

import (
	"math"
	"math/rand"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/ctrlplane"
)

// ctrlFingerprint collects every observable the asynchronous control
// plane could plausibly perturb: end state, engine history, control
// counters, and the next draw of the engine RNG (any extra consumption
// shifts it).
func ctrlFingerprint(p *Platform) map[string]int64 {
	g := p.Global
	return map[string]int64{
		"now":              int64(math.Float64bits(p.Eng.Now())),
		"steps":            int64(p.Eng.Steps()),
		"satisfaction":     int64(math.Float64bits(p.TotalSatisfaction())),
		"exposure_changes": g.ExposureChanges,
		"vip_transfers":    g.VIPTransfers,
		"failed_transfers": g.FailedTransfers,
		"server_transfers": g.ServerTransfers,
		"deployments":      g.Deployments,
		"removals":         g.Removals,
		"interpod_adjusts": g.InterPodAdjusts,
		"force_breaks":     g.DrainForceBreaks,
		"weight_changes":   p.DNS.WeightChanges,
		"stale_writes":     p.DNS.StaleWrites,
		"fab_transfers":    p.Fabric.Transfers,
		"fab_broken":       p.Fabric.BrokenConns,
		"viprip_processed": p.VIPRIP.Processed,
		"next_rand":        p.Eng.Rand().Int63(),
	}
}

// TestSyncEquivalence is the standing invariant of the control-plane
// bus: with the bus enabled but every link at zero delay, zero loss,
// and zero staleness, a run is byte-identical to the same run on the
// synchronous path (bus disabled). The ideal fast path must schedule
// no engine events and draw no randomness, so the equivalence covers
// event counts and RNG position, not just end state.
func TestSyncEquivalence(t *testing.T) {
	const nOps = 80
	sync := runPropagationScenario(t, DefaultConfig(), nOps)

	asyncCfg := DefaultConfig()
	asyncCfg.Ctrl.Enable = true // all links default to the ideal zero config
	async := runPropagationScenario(t, asyncCfg, nOps)

	if d := sync.captureState().diff(async.captureState()); d != "" {
		t.Fatalf("ideal async run diverged from synchronous run: %s", d)
	}
	fs, fa := ctrlFingerprint(sync), ctrlFingerprint(async)
	for k, v := range fs {
		if fa[k] != v {
			t.Errorf("fingerprint %q: sync %d != async %d", k, v, fa[k])
		}
	}
	// The bus really was exercised: every decision went through it.
	if async.Ctrl().Sent == 0 && async.Ctrl().Casts == 0 {
		t.Fatal("enabled bus carried no messages — scenario bypassed it")
	}
	if async.Ctrl().Retries != 0 || async.Ctrl().DeadLetters != 0 {
		t.Fatalf("ideal links produced retries=%d dead_letters=%d",
			async.Ctrl().Retries, async.Ctrl().DeadLetters)
	}
}

// TestSyncEquivalenceSerialized repeats the equivalence check with the
// serialized switch-configuration pipeline in the loop, since the bus
// wraps its Submit calls.
func TestSyncEquivalenceSerialized(t *testing.T) {
	const nOps = 60
	base := DefaultConfig()
	base.SerializeReconfig = true
	sync := runPropagationScenario(t, base, nOps)

	asyncCfg := base
	asyncCfg.Ctrl.Enable = true
	async := runPropagationScenario(t, asyncCfg, nOps)

	if d := sync.captureState().diff(async.captureState()); d != "" {
		t.Fatalf("ideal async run diverged from synchronous run: %s", d)
	}
	fs, fa := ctrlFingerprint(sync), ctrlFingerprint(async)
	for k, v := range fs {
		if fa[k] != v {
			t.Errorf("fingerprint %q: sync %d != async %d", k, v, fa[k])
		}
	}
}

// TestDrainRetryTimeoutAccounting is the knob-B regression for the
// at-least-once bus: every ack on the CSM→Global reverse link is lost,
// so each transfer step of the drain protocol is retried until its
// retry cap and then dead-lettered — AFTER its first delivery already
// applied. Without the per-drain token and per-attempt settlement
// guard, the duplicate completions would re-expose the draining VIP
// (I1.EXPOSED_HOMED) and double-count Result.Broken into
// DrainForceBreaks (I4.BROKEN_ACCOUNTED: every broken connection
// accounted exactly once).
func TestDrainRetryTimeoutAccounting(t *testing.T) {
	cfg := testConfig()
	cfg.Ctrl.Enable = true
	cfg.Ctrl.Links = map[string]ctrlplane.LinkConfig{
		ctrlplane.LinkKey(ctrlplane.CSM, ctrlplane.Global): {LossProb: 1},
	}
	p := newTestPlatform(t, cfg)
	app, err := p.OnboardApp("drainy", defaultSlice(), 2, Demand{CPU: 1, Mbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	vips := p.Fabric.VIPsOfApp(app.ID)
	vip := vips[0]
	home, _ := p.Fabric.HomeOf(vip)
	dstID := home + 1
	if int(dstID) >= p.Fabric.NumSwitches() {
		dstID = 0
	}
	// One sticky tracked connection (an extreme TTL violator) keeps the
	// VIP busy: the first two transfer attempts fail with
	// ErrActiveConns, the third forces and breaks it.
	if _, _, _, err := p.Fabric.Switch(home).OpenConn(vip, p.Rand()); err != nil {
		t.Fatal(err)
	}

	p.Global.startDrainAndTransfer(vip, dstID)
	p.Eng.RunUntil(6000) // past every retry window (3 × 1270s worst case)

	g := p.Global
	if g.VIPTransfers != 1 {
		t.Errorf("VIPTransfers = %d, want 1 (timed-out step must not double-count)", g.VIPTransfers)
	}
	if g.FailedTransfers != 0 {
		t.Errorf("FailedTransfers = %d, want 0 (dead-letter after apply must not settle again)", g.FailedTransfers)
	}
	if g.DrainForceBreaks != 1 {
		t.Errorf("DrainForceBreaks = %d, want 1 (I4.BROKEN_ACCOUNTED)", g.DrainForceBreaks)
	}
	if p.Fabric.BrokenConns != 1 {
		t.Errorf("Fabric.BrokenConns = %d, want 1", p.Fabric.BrokenConns)
	}
	if h, ok := p.Fabric.HomeOf(vip); !ok || h != dstID {
		t.Errorf("VIP home = %v (ok=%v), want %v", h, ok, dstID)
	}
	// Exposure restored exactly once, drain state fully released.
	vips, ws, err := p.DNS.Weights(app.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range vips {
		if v == vip && ws[i] != 1 {
			t.Errorf("drained VIP weight = %v, want 1 (restored once)", ws[i])
		}
	}
	if len(p.claims.m) != 0 {
		t.Errorf("claims still held after the drain finished: %v", p.claims.m)
	}
	// Each transfer attempt's message dead-lettered (all acks lost), and
	// the stale dead letters were ignored by the settled guard.
	if p.Ctrl().DeadLetters == 0 {
		t.Error("no dead letters — the lossy ack link never engaged")
	}
	if p.Ctrl().Deduped == 0 {
		t.Error("no deduped redeliveries — retries never hit the idempotency filter")
	}
	if err := p.AuditErr(); err != nil {
		t.Errorf("audit after drain: %v", err)
	}
}

// TestPartitionDegradeReconcile partitions one pod's control link
// mid-run: the pod manager must keep serving on its last-acknowledged
// snapshot, defer CSM-bound decisions while degraded, and reconcile
// them when the partition heals. The run must end with every deferred
// intent resolved, no dead letters at the default retry caps, and a
// clean audit.
func TestPartitionDegradeReconcile(t *testing.T) {
	topo := SmallTopology()
	topo.Seed = 7
	cfg := DefaultConfig()
	cfg.VIPsPerApp = 2
	cfg.AuditEvery = 50
	cfg.Ctrl.Enable = true
	cfg.Ctrl.Default = ctrlplane.LinkConfig{Delay: 1}
	cfg.Ctrl.SnapshotEvery = 30
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var apps []cluster.AppID
	for i := 0; i < 4; i++ {
		a, err := p.OnboardApp("part", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
			3, Demand{CPU: 2, Mbps: 50})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a.ID)
	}
	p.Start()
	// Keep demand churning so pods want weight changes and scale-outs
	// throughout the window.
	p.Eng.Every(20, 40, func() bool {
		app := apps[rng.Intn(len(apps))]
		p.SetAppDemand(app, Demand{CPU: rng.Float64() * 40, Mbps: rng.Float64() * 400})
		return p.Eng.Now() < 1500
	})

	pod := ctrlplane.Pod(0)
	p.Eng.At(500, func() { p.Ctrl().Partition(pod) })
	p.Eng.At(900, func() { p.Ctrl().Heal(pod) })
	p.Eng.RunUntil(2000)

	pm := p.PodManagers()[0]
	if pm.Deferred == 0 {
		t.Error("partitioned pod deferred nothing — degraded mode never engaged")
	}
	if pm.Reconciled+pm.DroppedStale != pm.Deferred {
		t.Errorf("deferred=%d but reconciled=%d + dropped_stale=%d — intents leaked",
			pm.Deferred, pm.Reconciled, pm.DroppedStale)
	}
	// Default exponential backoff spans ~1270s per call — far beyond the
	// 400s partition — so nothing may dead-letter.
	if n := p.Ctrl().DeadLetters; n != 0 {
		t.Errorf("dead letters = %d, want 0 (log: %+v)", n, p.Ctrl().DeadLetterLog)
	}
	if p.Ctrl().Partitions != 1 || p.Ctrl().Heals != 1 {
		t.Errorf("partitions=%d heals=%d, want 1/1", p.Ctrl().Partitions, p.Ctrl().Heals)
	}
	if err := p.AuditErr(); err != nil {
		t.Errorf("audit after heal: %v", err)
	}
}

// TestFaultyRunReproducible pins byte-for-byte reproducibility of a
// seeded faulty-control-plane run: same seed → identical end state and
// identical bus counters; the bus's own RNG never touches the engine's.
func TestFaultyRunReproducible(t *testing.T) {
	run := func() *Platform {
		cfg := DefaultConfig()
		cfg.Ctrl.Enable = true
		cfg.Ctrl.Default = ctrlplane.LinkConfig{Delay: 2, Jitter: 1, LossProb: 0.1, DupProb: 0.05}
		cfg.Ctrl.Seed = 99
		return runPropagationScenario(t, cfg, 60)
	}
	a, b := run(), run()
	if d := a.captureState().diff(b.captureState()); d != "" {
		t.Fatalf("identically-seeded faulty runs diverged: %s", d)
	}
	fa, fb := ctrlFingerprint(a), ctrlFingerprint(b)
	for k, v := range fa {
		if fb[k] != v {
			t.Errorf("fingerprint %q: %d != %d", k, v, fb[k])
		}
	}
	for k, v := range map[string]int64{
		"sent":      a.Ctrl().Sent - b.Ctrl().Sent,
		"retries":   a.Ctrl().Retries - b.Ctrl().Retries,
		"dropped":   a.Ctrl().Dropped - b.Ctrl().Dropped,
		"deduped":   a.Ctrl().Deduped - b.Ctrl().Deduped,
		"dead":      a.Ctrl().DeadLetters - b.Ctrl().DeadLetters,
		"delivered": a.Ctrl().Delivered - b.Ctrl().Delivered,
	} {
		if v != 0 {
			t.Errorf("bus counter %q differs by %d across identical runs", k, v)
		}
	}
	if a.Ctrl().Dropped == 0 {
		t.Error("lossy links dropped nothing — fault injection inert")
	}
}
