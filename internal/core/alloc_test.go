package core

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/dnsctl"
	"megadc/internal/ipv4"
	"megadc/internal/lbswitch"
)

// allocTestPlatform builds a platform with enough demand-carrying apps
// to clear parallelThreshold, fully warmed up (tables grown, ledgers
// and scratch at steady capacity, pool spawned if workers > 1).
func allocTestPlatform(t testing.TB, workers int) *Platform {
	topo := SmallTopology()
	cfg := DefaultConfig()
	cfg.VIPsPerApp = 2
	cfg.PropagateWorkers = workers
	cfg.PropagateFullEvery = -1 // isolate each path under measurement
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	for i := 0; i < 3*parallelThreshold; i++ {
		d := Demand{CPU: 0.5 + float64(i%7)*0.31, Mbps: 10 + float64(i%11)*3.7}
		if _, err := p.OnboardApp(fmt.Sprintf("al-%d", i),
			cluster.Resources{CPU: 0.2, MemMB: 128, NetMbps: 8}, 1, d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		p.PropagateFull() // warm every buffer on both paths
	}
	return p
}

// TestPropagateStadyTickAllocFree pins the steady-state incremental
// tick — one app's demand changes, Propagate recomputes it — at zero
// heap allocations.
func TestPropagateSteadyTickAllocFree(t *testing.T) {
	p := allocTestPlatform(t, 1)
	apps := p.Cluster.AppIDs()
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		app := apps[i%len(apps)]
		p.SetAppDemand(app, Demand{CPU: 0.5 + float64(i%5)*0.1, Mbps: 10 + float64(i%3)})
		i++
	}); n != 0 {
		t.Fatalf("steady incremental tick allocates %v times, want 0", n)
	}
}

// TestPropagateFullAllocFree pins the sequential full recompute at zero
// heap allocations once warm.
func TestPropagateFullAllocFree(t *testing.T) {
	p := allocTestPlatform(t, 1)
	if n := testing.AllocsPerRun(100, func() { p.PropagateFull() }); n != 0 {
		t.Fatalf("sequential full recompute allocates %v times, want 0", n)
	}
}

// TestPropagateParallelAllocFree pins the parallel compute phase —
// persistent pool, per-worker scratch, channel handoff — at zero heap
// allocations once warm, on both the full and the dirty path.
func TestPropagateParallelAllocFree(t *testing.T) {
	p := allocTestPlatform(t, 4)
	if n := testing.AllocsPerRun(100, func() { p.PropagateFull() }); n != 0 {
		t.Fatalf("parallel full recompute allocates %v times, want 0", n)
	}
	// Dirty set wide enough to fan out (≥ parallelThreshold, < half the
	// demand apps so the dirty path is taken), warmed once first.
	apps := p.Cluster.AppIDs()
	if 2*parallelThreshold >= len(apps) {
		t.Fatalf("dirty set %d would trigger the full path over %d apps", parallelThreshold, len(apps))
	}
	dirtyPass := func() {
		for i := 0; i < parallelThreshold; i++ {
			p.markAppDirty(apps[i])
		}
		p.Propagate()
	}
	dirtyPass()
	if n := testing.AllocsPerRun(100, dirtyPass); n != 0 {
		t.Fatalf("parallel dirty recompute allocates %v times, want 0", n)
	}
}

// TestExpectedMissSentinels pins the misses that callers probe for and
// discard: a RIP not in a VIP's group, a query for an unregistered app
// or one with nothing exposed, and a pod with no server with room. Each
// returns its sentinel itself, so errors.Is matches and the miss costs
// no allocation.
func TestExpectedMissSentinels(t *testing.T) {
	p := newTestPlatform(t, testConfig())
	if _, err := p.OnboardApp("a", defaultSlice(), 2, Demand{CPU: 1, Mbps: 50}); err != nil {
		t.Fatal(err)
	}
	// An app whose slice fits no server, with every VIP hidden.
	big, err := p.OnboardApp("big", cluster.Resources{CPU: 1e6, MemMB: 1024, NetMbps: 100}, 0, Demand{})
	if err != nil {
		t.Fatal(err)
	}
	for _, vip := range p.Fabric.VIPsOfApp(big.ID) {
		if err := p.DNS.SetWeight(big.ID, vip, 0); err != nil {
			t.Fatal(err)
		}
	}
	vip := p.Fabric.VIPsOfApp(0)[0]
	home, _ := p.Fabric.HomeOf(vip)
	sw := p.Fabric.Switch(home)
	pod := p.Cluster.PodIDs()[0]
	rng := rand.New(rand.NewSource(1))
	misses := []struct {
		name string
		want error
		miss func() error
	}{
		{"Switch.RemoveRIP", lbswitch.ErrNoSuchRIP, func() error {
			_, err := sw.RemoveRIP(vip, ipv4.MustParse("192.0.2.1"))
			return err
		}},
		{"DNS.Resolve unregistered", dnsctl.ErrNoApp, func() error {
			_, err := p.DNS.Resolve(big.ID+100, rng)
			return err
		}},
		{"DNS.Resolve hidden", dnsctl.ErrNoExposed, func() error {
			_, err := p.DNS.Resolve(big.ID, rng)
			return err
		}},
		{"Platform.DeployInstanceFor", ErrNoRoom, func() error {
			_, err := p.DeployInstanceFor(big.ID, pod, 0)
			return err
		}},
	}
	for _, m := range misses {
		if err := m.miss(); !errors.Is(err, m.want) {
			t.Errorf("%s: err = %v, want %v", m.name, err, m.want)
		}
		if n := testing.AllocsPerRun(100, func() { m.miss() }); n != 0 {
			t.Errorf("%s: miss allocates %v times, want 0", m.name, n)
		}
	}
}
