package spans

import (
	"testing"

	"megadc/internal/health"
	"megadc/internal/ipv4"
	"megadc/internal/trace"
	"megadc/internal/viprip"
)

// feedRecorder wires a tracker to a recorder with a settable clock.
func feedRecorder(t *testing.T) (*trace.Recorder, *Tracker, *float64) {
	t.Helper()
	now := new(float64)
	rec := trace.NewRecorder(64)
	rec.Now = func() float64 { return *now }
	tr := New(nil)
	rec.OnEvent = tr.Handle
	return rec, tr, now
}

func TestRequestSpans(t *testing.T) {
	rec, tr, now := feedRecorder(t)
	prio := float64(viprip.PriorityHigh)
	*now = 10
	rec.Record(trace.EvReqSubmit, prio, 7, trace.App(1))
	*now = 16 // 6 s queue wait
	rec.Record(trace.EvReqProcess, prio, 7, trace.App(1))
	*now = 19 // 3 s service
	rec.Record(trace.EvReqDone, prio, 7, trace.App(1))

	qw := tr.Registry().Histogram("viprip.queue_wait.high")
	st := tr.Registry().Histogram("viprip.service_time.high")
	if qw.Count() != 1 || qw.Max() != 6 {
		t.Fatalf("queue wait: count=%d max=%v", qw.Count(), qw.Max())
	}
	if st.Count() != 1 || st.Max() != 3 {
		t.Fatalf("service time: count=%d max=%v", st.Count(), st.Max())
	}
	if tr.OpenLifecycles() != 0 {
		t.Fatalf("open lifecycles after done: %d", tr.OpenLifecycles())
	}
}

func TestDrainSpans(t *testing.T) {
	rec, tr, now := feedRecorder(t)
	vip := trace.VIP(ipv4.MustParse("10.0.0.1"))
	*now = 100
	rec.Record(trace.EvDrainStart, 1, 65, vip)
	*now = 170
	rec.Record(trace.EvDrainForce, 3, 0, vip)
	*now = 171
	rec.Record(trace.EvDrainFinish, 1, 0, vip)

	force := tr.Registry().Histogram("drain.start_to_force")
	finish := tr.Registry().Histogram("drain.start_to_finish")
	if force.Count() != 1 || force.Max() != 70 {
		t.Fatalf("start_to_force: count=%d max=%v", force.Count(), force.Max())
	}
	if finish.Count() != 1 || finish.Max() != 71 {
		t.Fatalf("start_to_finish: count=%d max=%v", finish.Count(), finish.Max())
	}
}

func TestFaultSpans(t *testing.T) {
	rec, tr, now := feedRecorder(t)
	srv := trace.Server(4)
	*now = 50
	rec.Record(trace.EvHealth, float64(health.Healthy), float64(health.FailedUndetected), srv)
	*now = 65 // detect after 15 s (straight to Repairing, as DetectServer does)
	rec.Record(trace.EvHealth, float64(health.FailedUndetected), float64(health.Repairing), srv)
	*now = 245 // repaired after 180 s
	rec.Record(trace.EvHealth, float64(health.Repairing), float64(health.Healthy), srv)

	det := tr.Registry().Histogram("fault.inject_to_detect.server")
	rep := tr.Registry().Histogram("fault.detect_to_repair.server")
	if det.Count() != 1 || det.Max() != 15 {
		t.Fatalf("inject_to_detect: count=%d max=%v", det.Count(), det.Max())
	}
	if rep.Count() != 1 || rep.Max() != 180 {
		t.Fatalf("detect_to_repair: count=%d max=%v", rep.Count(), rep.Max())
	}
}

func TestFlapClosesWithoutDetect(t *testing.T) {
	rec, tr, now := feedRecorder(t)
	link := trace.Link(2)
	*now = 10
	rec.Record(trace.EvHealth, float64(health.Healthy), float64(health.FailedUndetected), link)
	*now = 12 // flap clears before detection
	rec.Record(trace.EvHealth, float64(health.FailedUndetected), float64(health.Healthy), link)

	if n := tr.Registry().Histogram("fault.inject_to_detect.link").Count(); n != 0 {
		t.Fatalf("flap recorded %d detection latencies", n)
	}
	if tr.OpenLifecycles() != 0 {
		t.Fatalf("flap left %d lifecycles open", tr.OpenLifecycles())
	}
}

func TestDNSConvergenceWindow(t *testing.T) {
	tr := New(nil)
	const ttl = 60.0
	d1 := tr.DNSChanged(100, ttl)
	if d1 != 160 {
		t.Fatalf("deadline = %v, want 160", d1)
	}
	// A second change extends the burst; the first deadline is stale.
	d2 := tr.DNSChanged(130, ttl)
	tr.CloseDNSWindow(d1) // must be a no-op
	if tr.OpenLifecycles() != 1 {
		t.Fatal("stale deadline closed the window")
	}
	tr.CloseDNSWindow(d2)
	h := tr.Registry().Histogram("dns.convergence")
	if h.Count() != 1 || h.Max() != 90 { // 100 → 130+60
		t.Fatalf("convergence: count=%d max=%v", h.Count(), h.Max())
	}
	// A fresh burst starts a new window.
	d3 := tr.DNSChanged(500, ttl)
	tr.CloseDNSWindow(d3)
	if h.Count() != 2 || h.Min() != ttl {
		t.Fatalf("second burst: count=%d min=%v", h.Count(), h.Min())
	}
}
