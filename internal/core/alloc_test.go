package core

import (
	"fmt"
	"testing"

	"megadc/internal/cluster"
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
