package requests

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/lbswitch"
	"megadc/internal/metrics"
	"megadc/internal/workload"
)

func newPlatform(t *testing.T, seed int64) *core.Platform {
	t.Helper()
	topo := core.SmallTopology()
	topo.Seed = seed
	cfg := core.DefaultConfig()
	cfg.VIPsPerApp = 2
	p, err := core.NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func slice() cluster.Resources { return cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100} }

func TestConfigValidation(t *testing.T) {
	p := newPlatform(t, 1)
	reg := metrics.NewRegistry()
	good := DefaultConfig()
	good.Profile = workload.Constant(10)
	good.Registry = reg

	if _, err := New(p, good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Config)
	}{
		{"nil registry", func(c *Config) { c.Registry = nil }},
		{"nil profile", func(c *Config) { c.Profile = nil }},
		{"invalid profile", func(c *Config) { c.Profile = workload.Diurnal{Base: 1, Amplitude: 1, Period: 0} }},
		{"zero queue", func(c *Config) { c.QueueCap = 0 }},
		{"queue past int32", func(c *Config) { c.QueueCap = math.MaxInt32 + 1 }},
		{"zero cpu", func(c *Config) { c.CPUPerRequest = 0 }},
		{"nan cpu", func(c *Config) { c.CPUPerRequest = math.NaN() }},
		{"zero refresh", func(c *Config) { c.RefreshEvery = 0 }},
		{"zero population", func(c *Config) { c.Population = 0 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			bad := good
			c.mutate(&bad)
			if _, err := New(p, bad); err == nil {
				t.Errorf("%s accepted", c.name)
			}
		})
	}

	e, err := New(p, good)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err == nil {
		t.Error("Start with no apps accepted")
	}
}

// TestAddAppRejectsDuplicate: an app may be driven once; a second
// AddApp for it, alone or inside AddAppsZipf, fails and registers
// nothing.
func TestAddAppRejectsDuplicate(t *testing.T) {
	p := newPlatform(t, 1)
	var apps []cluster.AppID
	for i := 0; i < 2; i++ {
		a, err := p.OnboardApp(fmt.Sprintf("app-%d", i), slice(), 2, core.Demand{})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a.ID)
	}
	cfg := DefaultConfig()
	cfg.Profile = workload.Constant(10)
	cfg.Registry = metrics.NewRegistry()
	e, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddApp(apps[0], 1); err != nil {
		t.Fatal(err)
	}
	if err := e.AddApp(apps[0], 2); err == nil || !strings.Contains(err.Error(), "already driven") {
		t.Fatalf("second AddApp of app %d: err = %v, want \"already driven\"", apps[0], err)
	}
	if err := e.AddAppsZipf([]cluster.AppID{apps[1], apps[1]}, 1.0); err == nil {
		t.Fatal("AddAppsZipf with a repeated app accepted")
	}
	if e.driven.Count() != 2 || len(e.weights) != 2 {
		t.Fatalf("%d apps, %d weights registered, want 2 and 2", e.driven.Count(), len(e.weights))
	}
}

func TestRequestsServeAndRecordLatency(t *testing.T) {
	p := newPlatform(t, 1)
	apps := make([]cluster.AppID, 0, 4)
	for i := 0; i < 4; i++ {
		a, err := p.OnboardApp(fmt.Sprintf("app-%d", i), slice(), 4, core.Demand{})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a.ID)
	}
	reg := metrics.NewRegistry()
	cfg := DefaultConfig()
	cfg.Profile = workload.Constant(200)
	cfg.Registry = reg
	cfg.StopAt = 60
	e, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddAppsZipf(apps, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	p.Eng.RunUntil(120)

	st := e.Stats()
	if st.Generated < 10000 {
		t.Fatalf("generated %d, want ≈12000", st.Generated)
	}
	if st.Generated != st.Enqueued+st.Dropped+st.NoExposure {
		t.Errorf("conservation: generated %d != enqueued %d + dropped %d + noexpo %d",
			st.Generated, st.Enqueued, st.Dropped, st.NoExposure)
	}
	if st.Enqueued != st.Served+int64(e.Pending()) {
		t.Errorf("conservation: enqueued %d != served %d + pending %d",
			st.Enqueued, st.Served, e.Pending())
	}
	if st.Served == 0 {
		t.Fatal("no requests served")
	}

	// Latency lands in the registry: aggregate plus one family per app,
	// every observation positive (queue wait ≥ 0, service > 0).
	all := reg.Histogram("requests.latency.all")
	if all.Count() != uint64(st.Served) {
		t.Errorf("aggregate histogram count %d != served %d", all.Count(), st.Served)
	}
	if all.Quantile(0.99) <= 0 || all.Min() <= 0 {
		t.Errorf("latency quantiles not positive: p99 %v min %v", all.Quantile(0.99), all.Min())
	}
	var perApp uint64
	for _, name := range reg.Names() {
		if strings.HasPrefix(name, "requests.latency.app-") {
			perApp += reg.Histogram(name).Count()
		}
	}
	if perApp != all.Count() {
		t.Errorf("per-app histogram counts sum to %d, aggregate has %d", perApp, all.Count())
	}
	// Zipf popularity: the rank-0 app must see more requests than the
	// rank-3 app (weights 1 : 1/4 at s=1).
	h0 := reg.Histogram(fmt.Sprintf("requests.latency.app-%02d", apps[0]))
	h3 := reg.Histogram(fmt.Sprintf("requests.latency.app-%02d", apps[3]))
	if h0.Count() <= h3.Count() {
		t.Errorf("zipf rank-0 app served %d <= rank-3 app %d", h0.Count(), h3.Count())
	}

	// Switch-side telemetry agrees with the engine and satisfies the
	// conservation invariant.
	var swServed, swDropped int64
	for i := 0; i < p.Fabric.NumSwitches(); i++ {
		sw := p.Fabric.Switch(lbswitch.SwitchID(i))
		if err := sw.CheckReqInvariants(); err != nil {
			t.Error(err)
		}
		swServed += sw.Req.Served
		swDropped += sw.Req.Dropped
	}
	if swServed != st.Served || swDropped != st.Dropped {
		t.Errorf("switch counters (served %d, dropped %d) != engine (%d, %d)",
			swServed, swDropped, st.Served, st.Dropped)
	}
}

// TestBoundedQueueDrops saturates tiny queues: offered load far above
// service capacity must produce drops, not unbounded memory.
func TestBoundedQueueDrops(t *testing.T) {
	p := newPlatform(t, 2)
	a, err := p.OnboardApp("hot", slice(), 2, core.Demand{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	cfg := DefaultConfig()
	cfg.Profile = workload.Constant(5000)
	cfg.QueueCap = 8
	cfg.CPUPerRequest = 0.05 // 2 backends × 1 core / 0.05 = 40 req/s max
	cfg.Registry = reg
	cfg.StopAt = 20
	e, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddApp(a.ID, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	p.Eng.RunUntil(30)
	st := e.Stats()
	if st.Dropped == 0 {
		t.Fatal("saturated 8-deep queue recorded no drops")
	}
	if st.Dropped < st.Served {
		t.Errorf("at 125× overload drops (%d) should dwarf completions (%d)", st.Dropped, st.Served)
	}
	if e.Pending() > cfg.QueueCap*p.Fabric.NumSwitches() {
		t.Errorf("pending %d exceeds total queue capacity", e.Pending())
	}
	if reg.Counter("requests.dropped").Value() != st.Dropped {
		t.Error("dropped counter disagrees with stats")
	}
}

// ringOrder returns q's live requests in FIFO order, head first. A
// request is a value, (arrival time, app); arrival times are strictly
// increasing, so no two live requests compare equal.
func ringOrder(q *swQueue) []request {
	out := make([]request, q.n)
	for i := range out {
		out[i] = q.buf[(int(q.head)+i)%len(q.buf)]
	}
	return out
}

// TestQueueRingSizeAndOrder pins the on-demand ring. A switch served
// far below its arrival rate grows its ring while the head has moved,
// must still serve in arrival order, and must drop (and count) the
// arrival that would take its depth past QueueCap. After a steady run,
// no ring is larger than twice its switch's high-water depth.
func TestQueueRingSizeAndOrder(t *testing.T) {
	t.Run("stalled", func(t *testing.T) {
		p := newPlatform(t, 4)
		a, err := p.OnboardApp("hot", slice(), 2, core.Demand{})
		if err != nil {
			t.Fatal(err)
		}
		cfg := DefaultConfig()
		cfg.Profile = workload.Constant(40)
		cfg.QueueCap = 50        // not a power of two: the last doubling is clamped
		cfg.CPUPerRequest = 0.25 // each switch serves ~4 of its ~20 req/s
		cfg.Registry = metrics.NewRegistry()
		e, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AddApp(a.ID, 1); err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		grewMidRing := 0
		for p.Eng.Now() < 10 {
			before := make(map[lbswitch.SwitchID][]request)
			heads := make(map[lbswitch.SwitchID]int)
			sizes := make(map[lbswitch.SwitchID]int)
			drops := make(map[lbswitch.SwitchID]int64)
			for _, id := range e.qOrder {
				q := &e.queues[id]
				before[id], heads[id], sizes[id], drops[id] = ringOrder(q), int(q.head), len(q.buf), q.sw.Req.Dropped
			}
			served, enqueued := e.Stats().Served, e.Stats().Enqueued
			if !p.Eng.Step() {
				t.Fatal("event queue drained")
			}
			// One event serves or admits at most one request.
			k := int(e.Stats().Served - served)
			added := int(e.Stats().Enqueued - enqueued)
			for _, id := range e.qOrder {
				q := &e.queues[id]
				if int(q.n) > cfg.QueueCap || len(q.buf) > cfg.QueueCap {
					t.Fatalf("switch %d: depth %d, ring %d, cap %d", id, q.n, len(q.buf), cfg.QueueCap)
				}
				old, now := before[id], ringOrder(q)
				if len(now) < len(old) {
					old = old[1:] // this queue's head was served
					k--
				}
				if len(now) > len(old) {
					now = now[:len(old)] // this queue admitted one
					added--
				}
				for i := range old {
					if now[i] != old[i] {
						t.Fatalf("switch %d at t=%v: FIFO position %d changed", id, p.Eng.Now(), i)
					}
				}
				if len(q.buf) > sizes[id] && heads[id] != 0 {
					grewMidRing++
				}
				if q.sw.Req.Dropped > drops[id] && len(before[id]) != cfg.QueueCap {
					t.Fatalf("switch %d dropped an arrival at depth %d < cap %d", id, len(before[id]), cfg.QueueCap)
				}
			}
			if k != 0 || added != 0 {
				t.Fatalf("t=%v: %d served and %d admitted requests not found in any queue", p.Eng.Now(), k, added)
			}
		}
		if grewMidRing == 0 {
			t.Fatal("no ring grew while its head was away from index 0")
		}
		st := e.Stats()
		if st.Dropped == 0 {
			t.Fatal("no drops: no queue reached its cap")
		}
		var swDropped int64
		for _, id := range e.qOrder {
			swDropped += e.queues[id].sw.Req.Dropped
		}
		if swDropped != st.Dropped || st.NoExposure != 0 {
			t.Fatalf("switches counted %d drops, engine %d (no exposure %d)", swDropped, st.Dropped, st.NoExposure)
		}
	})

	t.Run("steady", func(t *testing.T) {
		p := newPlatform(t, 1)
		apps := make([]cluster.AppID, 0, 4)
		for i := 0; i < 4; i++ {
			a, err := p.OnboardApp(fmt.Sprintf("app-%d", i), slice(), 4, core.Demand{})
			if err != nil {
				t.Fatal(err)
			}
			apps = append(apps, a.ID)
		}
		cfg := DefaultConfig()
		cfg.Profile = workload.Constant(200)
		cfg.Registry = metrics.NewRegistry()
		cfg.StopAt = 30
		e, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AddAppsZipf(apps, 1.0); err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		p.Eng.RunUntil(40)
		if e.AttachedQueues() == 0 || e.Stats().Served == 0 {
			t.Fatal("no queue attached or no request served")
		}
		for _, id := range e.qOrder {
			q := &e.queues[id]
			if bound := max(minRing, 2*q.sw.Req.MaxDepth); len(q.buf) > bound {
				t.Errorf("switch %d: ring of %d for high-water depth %d, want ≤ %d",
					id, len(q.buf), q.sw.Req.MaxDepth, bound)
			}
		}
	})
}

// TestDeterministicStreams: identical seeds must reproduce the run
// byte-for-byte — same outcome counters, same histogram bit patterns.
func TestDeterministicStreams(t *testing.T) {
	run := func(seed int64) (Stats, string) {
		p := newPlatform(t, seed)
		apps := make([]cluster.AppID, 0, 3)
		for i := 0; i < 3; i++ {
			a, err := p.OnboardApp(fmt.Sprintf("app-%d", i), slice(), 3, core.Demand{})
			if err != nil {
				t.Fatal(err)
			}
			apps = append(apps, a.ID)
		}
		reg := metrics.NewRegistry()
		cfg := DefaultConfig()
		cfg.Profile = workload.FlashCrowd{Base: 50, Peak: 400, Start: 20, Ramp: 10, Hold: 20}
		cfg.Registry = reg
		cfg.StopAt = 80
		e, err := New(p, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := e.AddAppsZipf(apps, 1.0); err != nil {
			t.Fatal(err)
		}
		if err := e.Start(); err != nil {
			t.Fatal(err)
		}
		p.Eng.RunUntil(160)
		var sb strings.Builder
		reg.Each(func(name string, m any) {
			if h, ok := m.(*metrics.Histogram); ok {
				fmt.Fprintf(&sb, "%s %d %x %x;", name, h.Count(),
					math.Float64bits(h.Sum()), math.Float64bits(h.Max()))
			}
		})
		return e.Stats(), sb.String()
	}
	s1, h1 := run(7)
	s2, h2 := run(7)
	if s1 != s2 {
		t.Fatalf("same seed, different stats: %+v vs %+v", s1, s2)
	}
	if h1 != h2 {
		t.Fatal("same seed, different histogram bits")
	}
	s3, _ := run(8)
	if s1 == s3 {
		t.Fatal("different seeds, identical stats (seed ignored?)")
	}
}

// TestEnablingRequestsDoesNotPerturbPlatform pins the own-RNG idiom:
// a run with the request engine attached must leave every non-request
// observable byte-identical to the same run without it.
func TestEnablingRequestsDoesNotPerturbPlatform(t *testing.T) {
	run := func(withRequests bool) string {
		p := newPlatform(t, 5)
		a, err := p.OnboardApp("app", slice(), 4, core.Demand{})
		if err != nil {
			t.Fatal(err)
		}
		p.SetAppDemand(a.ID, core.Demand{CPU: 2, Mbps: 200})
		p.Start()
		if withRequests {
			reg := metrics.NewRegistry()
			cfg := DefaultConfig()
			cfg.Profile = workload.Constant(100)
			cfg.Registry = reg
			e, err := New(p, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := e.AddApp(a.ID, 1); err != nil {
				t.Fatal(err)
			}
			if err := e.Start(); err != nil {
				t.Fatal(err)
			}
		}
		p.Eng.RunUntil(60)
		var sb strings.Builder
		fmt.Fprintf(&sb, "sat %x;", math.Float64bits(p.TotalSatisfaction()))
		for i := 0; i < p.Fabric.NumSwitches(); i++ {
			sw := p.Fabric.Switch(lbswitch.SwitchID(i))
			fmt.Fprintf(&sb, "sw%d %x %d;", i, math.Float64bits(sw.ThroughputMbps()), sw.Reconfigs)
		}
		// The main RNG must be in the identical state afterwards: draw
		// from it and compare.
		fmt.Fprintf(&sb, "rng %x", p.Rand().Uint64())
		return sb.String()
	}
	if without, with := run(false), run(true); without != with {
		t.Fatalf("request engine perturbed the platform:\nwithout: %s\nwith:    %s", without, with)
	}
}

// TestPendingMatchesQueueDepths: Pending, kept as admitted minus served,
// equals the sum of every attached queue's depth at each capacity
// refresh of a run that drops arrivals at full queues and loses a
// switch with requests queued on it, and reaches zero once the run
// has drained.
func TestPendingMatchesQueueDepths(t *testing.T) {
	p := newPlatform(t, 2)
	var apps []cluster.AppID
	for i := 0; i < 4; i++ {
		a, err := p.OnboardApp(fmt.Sprintf("app-%d", i), slice(), 2, core.Demand{})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a.ID)
	}
	cfg := DefaultConfig()
	cfg.Profile = workload.Constant(100)
	cfg.QueueCap = 20
	cfg.CPUPerRequest = 0.05 // each switch serves well under its share
	cfg.RefreshEvery = 0.5
	cfg.StopAt = 20
	cfg.Registry = metrics.NewRegistry()
	e, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddAppsZipf(apps, 1.0); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	depths := func() int {
		n := 0
		for _, id := range e.qOrder {
			n += int(e.queues[id].n)
		}
		return n
	}
	checks := 0
	// Scheduled after Start at the same times, so each check runs right
	// after the engine's refresh.
	p.Eng.Every(p.Eng.Now()+cfg.RefreshEvery, cfg.RefreshEvery, func() bool {
		if got, want := e.Pending(), depths(); got != want {
			t.Fatalf("t=%v: Pending %d, queue depths sum to %d", p.Eng.Now(), got, want)
		}
		checks++
		return true
	})

	p.Eng.RunUntil(8)
	deepest := e.qOrder[0]
	for _, id := range e.qOrder {
		if e.queues[id].n > e.queues[deepest].n {
			deepest = id
		}
	}
	if e.queues[deepest].n == 0 {
		t.Fatal("no request queued when the switch fails")
	}
	if _, _, err := p.FailSwitch(deepest); err != nil {
		t.Fatal(err)
	}
	p.Eng.RunUntil(14)
	if err := p.RepairSwitch(deepest); err != nil {
		t.Fatal(err)
	}
	p.Eng.RunUntil(80)
	if st := e.Stats(); st.Dropped == 0 || checks < 100 {
		t.Fatalf("dropped %d arrivals over %d checks, want drops and ≥ 100 checks", st.Dropped, checks)
	}
	if e.Pending() != 0 || depths() != 0 {
		t.Fatalf("Pending %d, depths %d after the drain, want 0", e.Pending(), depths())
	}
}

// TestCapacityCoupling: the queue's service rate derives from healthy
// backend capacity, so failing every server of the app's pods must
// stall service until repair — pending requests pile up while the
// backends are down.
func TestCapacityCoupling(t *testing.T) {
	p := newPlatform(t, 3)
	a, err := p.OnboardApp("app", slice(), 4, core.Demand{})
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	cfg := DefaultConfig()
	cfg.Profile = workload.Constant(50)
	cfg.CPUPerRequest = 0.01
	cfg.RefreshEvery = 0.5
	cfg.Registry = reg
	cfg.StopAt = 40
	e, err := New(p, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.AddApp(a.ID, 1); err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	p.Eng.RunUntil(10)
	servedBefore := e.Stats().Served
	if servedBefore == 0 {
		t.Fatal("no requests served with healthy backends")
	}

	// Fail every server: backend capacity drops to zero everywhere.
	for _, id := range p.Cluster.ServerIDs() {
		p.FailServer(id)
	}
	p.Eng.RunUntil(20)
	stalled := e.Stats()

	p.Eng.RunUntil(21)
	if e.Stats().Served > stalled.Served+1 {
		// +1: one request may have been mid-service at fail time.
		t.Errorf("served %d requests while every backend was down", e.Stats().Served-stalled.Served)
	}

	// Repair the servers and redeploy the lost instances (FailServer
	// removes a failed server's VMs): capacity and service come back.
	for _, id := range p.Cluster.ServerIDs() {
		p.RepairServer(id)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.DeployInstance(a.ID, cluster.PodID(i%4)); err != nil {
			t.Fatal(err)
		}
	}
	p.Eng.RunUntil(40)
	if e.Stats().Served <= stalled.Served {
		t.Error("service did not resume after repair")
	}
}

// TestLatencyNameMatchesFormat checks AddApp's histogram name against
// the %02d spelling it replaces, on both sides of the padding.
func TestLatencyNameMatchesFormat(t *testing.T) {
	var buf []byte
	for _, app := range []cluster.AppID{0, 7, 9, 10, 42, 99, 100, 12345} {
		buf = appendLatencyName(buf[:0], app)
		if want := fmt.Sprintf("requests.latency.app-%02d", app); string(buf) != want {
			t.Errorf("app %d: %q, want %q", app, buf, want)
		}
	}
}
