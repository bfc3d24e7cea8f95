package megadc

// Micro-benchmarks of the hot paths: the event engine, the switch, DNS,
// the IP pool, the placement controller, Propagate and the two manager
// steps. Run:
//
//	go test -run '^$' -bench=. -benchmem
//
// They are developer tools; no number they print is committed. The
// committed performance numbers come from the bench/ harness
// (BENCHMARK.json, bench/baseline.json).

import (
	"math/rand"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/dnsctl"
	"megadc/internal/ids"
	"megadc/internal/ipv4"
	"megadc/internal/lbswitch"
	"megadc/internal/placement"
	"megadc/internal/sim"
	"megadc/internal/viprip"
)

func BenchmarkEngineEventThroughput(b *testing.B) {
	eng := sim.New(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		eng.After(1, func() {})
		eng.Step()
	}
}

func BenchmarkSwitchPickRIP(b *testing.B) {
	vip := ipv4.MustParse("203.0.113.1")
	sw := lbswitch.NewSwitch(0, lbswitch.CatalystCSM())
	sw.AddVIP(vip, 1)
	for i := 0; i < 20; i++ {
		sw.AddRIP(vip, ipv4.MustParse("10.0.0.1")+lbswitch.RIP(i), 1+float64(i%3))
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sw.PickRIP(vip, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSwitchOpenCloseConn(b *testing.B) {
	vip := ipv4.MustParse("203.0.113.1")
	sw := lbswitch.NewSwitch(0, lbswitch.CatalystCSM())
	sw.AddVIP(vip, 1)
	for i := 0; i < 20; i++ {
		sw.AddRIP(vip, ipv4.MustParse("10.0.0.1")+lbswitch.RIP(i), 1)
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id, _, _, err := sw.OpenConn(vip, rng)
		if err != nil {
			b.Fatal(err)
		}
		sw.CloseConn(id)
	}
}

func BenchmarkDNSResolve(b *testing.B) {
	d := dnsctl.New(60)
	for i := 0; i < 3; i++ {
		d.Register(1, ipv4.MustParse("203.0.113.1")+ipv4.Addr(i), ids.Index(i), float64(i+1))
	}
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Resolve(1, rng); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkIPPoolAllocFree(b *testing.B) {
	pool, err := viprip.NewIPPool("10.0.0.0", 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ip, err := pool.Alloc()
		if err != nil {
			b.Fatal(err)
		}
		if err := pool.Free(ip); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkControllerPlace500(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	prob := placement.Generate(1250, 500, placement.DefaultGenConfig(), rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ctl := &placement.Controller{}
		sol := ctl.Place(prob)
		if sol.SatisfiedFraction(prob) < 0.9 {
			b.Fatal("placement quality collapsed")
		}
	}
}

func BenchmarkPlatformPropagate(b *testing.B) {
	p, err := core.NewPlatform(core.SmallTopology(), core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	slice := cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}
	for i := 0; i < 16; i++ {
		if _, err := p.OnboardApp("a", slice, 3, core.Demand{CPU: 2, Mbps: 40}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Propagate with nothing dirty is a near no-op under incremental
		// propagation; force the full recompute to keep measuring it.
		p.PropagateFull()
	}
}

// benchPropagatePlatform builds a platform with nApps single-instance
// apps carrying varied demand, fully propagated, for the Propagate
// benchmarks below.
func benchPropagatePlatform(b *testing.B, nApps int, cfg core.Config) (*core.Platform, []cluster.AppID) {
	b.Helper()
	p, err := core.NewPlatform(core.SmallTopology(), cfg)
	if err != nil {
		b.Fatal(err)
	}
	slice := cluster.Resources{CPU: 0.25, MemMB: 128, NetMbps: 10}
	ids := make([]cluster.AppID, 0, nApps)
	for i := 0; i < nApps; i++ {
		a, err := p.OnboardApp("bench", slice, 1,
			core.Demand{CPU: 0.5 + float64(i%7)*0.31, Mbps: 10 + float64(i%11)*3.7})
		if err != nil {
			b.Fatal(err)
		}
		ids = append(ids, a.ID)
	}
	p.PropagateFull()
	return p, ids
}

// BenchmarkPropagateSteady is the steady-state tick: one of 128 apps
// (<1%) changes demand per iteration and Propagate recomputes only the
// dirty app against its cached previous contribution. The acceptance
// bar for incremental propagation is ≥5× fewer ns/op and allocs/op
// than BenchmarkPropagateFull.
func BenchmarkPropagateSteady(b *testing.B) {
	p, ids := benchPropagatePlatform(b, 128, core.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		app := ids[i%len(ids)]
		p.SetAppDemand(app, core.Demand{CPU: 0.5 + float64(i%5)*0.1, Mbps: 10 + float64(i%3)})
	}
}

// BenchmarkPropagateFull recomputes every app each iteration (the
// pre-incremental behaviour), with the deterministic parallel fan-out
// enabled at its default worker count.
func BenchmarkPropagateFull(b *testing.B) {
	p, _ := benchPropagatePlatform(b, 128, core.DefaultConfig())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PropagateFull()
	}
}

// BenchmarkPropagateFullSequential pins the full recompute to one
// worker, isolating the parallel fan-out's contribution.
func BenchmarkPropagateFullSequential(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.PropagateWorkers = 1
	p, _ := benchPropagatePlatform(b, 128, cfg)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.PropagateFull()
	}
}

func BenchmarkPodManagerStep(b *testing.B) {
	p, err := core.NewPlatform(core.SmallTopology(), core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	slice := cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}
	for i := 0; i < 16; i++ {
		if _, err := p.OnboardApp("a", slice, 3, core.Demand{CPU: 2, Mbps: 40}); err != nil {
			b.Fatal(err)
		}
	}
	pm := p.PodManagers()[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pm.Step()
		p.Eng.RunFor(30)
	}
}

func BenchmarkGlobalManagerStep(b *testing.B) {
	p, err := core.NewPlatform(core.SmallTopology(), core.DefaultConfig())
	if err != nil {
		b.Fatal(err)
	}
	slice := cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}
	for i := 0; i < 16; i++ {
		if _, err := p.OnboardApp("a", slice, 3, core.Demand{CPU: 2, Mbps: 40}); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Global.Step()
		p.Eng.RunFor(30)
	}
}
