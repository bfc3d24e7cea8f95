package requests

import (
	"fmt"
	"runtime"
	"testing"
	"unsafe"

	"megadc/internal/cluster"
	"megadc/internal/metrics"
	"megadc/internal/workload"
)

// TestRequestPathLayout pins the records one request touches to whole
// cache lines: a switch queue is exactly one line of its slice, and an
// application's record keeps its client population in its first line
// and starts its histogram's scalars on the next, with every record of
// a chunk starting a line. A histogram is its 40 bytes of scalars and
// its 32 bucket counts, nothing else.
func TestRequestPathLayout(t *testing.T) {
	if size := unsafe.Sizeof(swQueue{}); size != cacheLine {
		t.Errorf("swQueue is %d bytes, want %d", size, cacheLine)
	}
	if size := unsafe.Sizeof(metrics.Histogram{}); size != 296 {
		t.Errorf("metrics.Histogram is %d bytes, want 296", size)
	}
	var r appRec
	if end := unsafe.Offsetof(r.pop) + unsafe.Sizeof(r.pop); end > cacheLine {
		t.Errorf("client population ends at byte %d of the record, past its first line", end)
	}
	if off := unsafe.Offsetof(r.hist); off%cacheLine != 0 {
		t.Errorf("histogram scalars at byte %d of the record, not at a line start", off)
	}
	if size := unsafe.Sizeof(r); size%cacheLine != 0 {
		t.Errorf("appRec is %d bytes, not a whole number of lines", size)
	}

	e := newRecordEngine(t, metrics.NewRegistry())
	for i := 0; i < appChunk+1; i++ {
		if err := e.AddApp(cluster.AppID(i), 1); err != nil {
			t.Fatal(err)
		}
		if addr := uintptr(unsafe.Pointer(e.app(i))); addr%cacheLine != 0 {
			t.Fatalf("record %d at %#x is not line-aligned", i, addr)
		}
	}
	if addr := uintptr(unsafe.Pointer(&e.queues[0])); addr%cacheLine != 0 {
		t.Errorf("queue table at %#x is not line-aligned", addr)
	}
}

// newRecordEngine returns an engine on a small platform whose client
// populations are four clients each, for tests that add many apps
// without starting. AddApp does not check that an app exists.
func newRecordEngine(t *testing.T, reg *metrics.Registry) *Engine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Profile = workload.Constant(10)
	cfg.Population = 4
	cfg.Registry = reg
	e, err := New(newPlatform(t, 1), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

// TestAppRecordsStableAndAllocFree: per-app records are held in place in
// chunks that never move. Across 10K AddApps every registered
// per-app histogram is its record's own, at the same address at the end
// as when it was registered; adding an app costs a small constant
// number of allocations and no copy of earlier records. A name already
// taken in the registry, as a histogram or as another kind, panics.
func TestAppRecordsStableAndAllocFree(t *testing.T) {
	const apps = 10_000
	reg := metrics.NewRegistry()
	e := newRecordEngine(t, reg)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < apps; i++ {
		if err := e.AddApp(cluster.AppID(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	for i := 0; i < apps; i++ {
		name := fmt.Sprintf("requests.latency.app-%02d", i)
		if h := reg.Histogram(name); h != &e.app(i).hist {
			t.Fatalf("%s is registered at %p, its record's histogram is at %p", name, h, &e.app(i).hist)
		}
	}
	// Per app: the client table, the metric name and its boxed ID, and
	// a share of the chunk, map and weight-slice growth.
	perApp := float64(after.Mallocs-before.Mallocs) / apps
	bytes := float64(after.TotalAlloc-before.TotalAlloc) / apps
	t.Logf("per AddApp: %.2f allocations, %.0f bytes", perApp, bytes)
	if perApp > 4 {
		t.Errorf("%.2f allocations per AddApp, want ≤ 4", perApp)
	}
	// Records are written in place, so the bytes per app are one record
	// plus the maps' and the name's share. One slice of records regrown
	// by append would allocate its records several times over (about
	// five at a growth factor of 1.25).
	rec := float64(unsafe.Sizeof(appRec{}))
	if bytes > 3*rec {
		t.Errorf("%.0f bytes allocated per AddApp, want ≤ %.0f (three %.0f-byte records)", bytes, 3*rec, rec)
	}

	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", what)
			}
		}()
		fn()
	}
	reg.Counter(fmt.Sprintf("requests.latency.app-%02d", apps))
	mustPanic("AddApp onto a name taken by a counter", func() { e.AddApp(apps, 1) })
	reg.Histogram(fmt.Sprintf("requests.latency.app-%02d", apps+1))
	mustPanic("AddApp onto a name taken by a histogram", func() { e.AddApp(apps+1, 1) })
	mustPanic("RegisterHistogram of a taken name", func() {
		reg.RegisterHistogram("requests.latency.app-00", metrics.NewHistogram())
	})
}
