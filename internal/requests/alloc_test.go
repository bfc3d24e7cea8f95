package requests

import (
	"fmt"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/metrics"
	"megadc/internal/workload"
)

// TestRequestChurnAllocFree pins a steady request stream at zero
// allocations: once queues are attached, their rings have grown and
// the event heap has grown to its standing size, arrivals, enqueues,
// service starts and completions allocate nothing. Requests are values
// in the rings, the arrival callback is bound once in New and each
// queue's completion once when it attaches, so no event carries a
// fresh closure.
func TestRequestChurnAllocFree(t *testing.T) {
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
	p.Eng.RunFor(30) // attach every queue, grow the rings and the heap

	before := e.Stats()
	// One measured run of 20 simulated seconds, after one unmeasured
	// run of the same length: AllocsPerRun reports the measured run's
	// total allocation count.
	n := testing.AllocsPerRun(1, func() { p.Eng.RunFor(10) })
	st := e.Stats()
	if served := st.Served - before.Served; served < 2000 {
		t.Fatalf("served %d requests over the two runs, want ≥ 2000", served)
	}
	if st.Dropped+st.NoExposure != 0 {
		t.Fatalf("dropped %d, no exposure %d: the stream is not steady", st.Dropped, st.NoExposure)
	}
	if n != 0 {
		t.Fatalf("%v allocations over 10 simulated seconds (~2000 requests), want 0", n)
	}
}
