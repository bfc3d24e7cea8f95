package viprip

import (
	"errors"
	"testing"

	"megadc/internal/health"
	"megadc/internal/lbswitch"
	"megadc/internal/sim"
)

// setupTwoSwitchVIPs builds a serialized manager with one VIP (plus a
// RIP, so weight adjustments have something to adjust) on each of the
// two switches.
func setupTwoSwitchVIPs(t *testing.T) (m *Manager, eng *sim.Engine, vips [2]lbswitch.VIP) {
	t.Helper()
	f := lbswitch.NewFabric()
	f.AddSwitch(lbswitch.CatalystCSM())
	f.AddSwitch(lbswitch.CatalystCSM())
	vp, err := NewIPPool("100.64.0.0", 256)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewIPPool("10.0.0.0", 256)
	if err != nil {
		t.Fatal(err)
	}
	m = NewManager(f, vp, rp)
	for i := 0; i < 2; i++ {
		vip, home, err := m.AddVIP(1)
		if err != nil {
			t.Fatal(err)
		}
		if home != lbswitch.SwitchID(i) {
			t.Fatalf("vip %d homed on switch %d, want %d (blend alternates on unloaded switches)", i, home, i)
		}
		rip, err := m.AllocRIP()
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := m.AddRIP(1, rip, 1, vip, -1); err != nil {
			t.Fatal(err)
		}
		vips[i] = vip
	}
	eng = sim.New(1)
	m.StartSerialized(eng, 3)
	return m, eng, vips
}

// A request in service when its switch fails must not vanish: it is
// resubmitted with a fresh seq, so it rejoins the queue BEHIND work of
// its own priority class that queued while it was in flight — exactly
// what requestOrder (priority desc, then seq asc) prescribes — and
// completes once the switch repairs.
func TestSerializedMidFlightFailureResubmitsInOrder(t *testing.T) {
	m, eng, vips := setupTwoSwitchVIPs(t)
	f := m.Fabric()

	var order []string
	done := func(tag string) func(*Request) {
		return func(r *Request) {
			if r.Err != nil {
				t.Errorf("%s failed: %v", tag, r.Err)
			}
			order = append(order, tag)
		}
	}
	// A grabs the pipeline at t=0 (normal priority, targets switch 0).
	eng.At(0, func() {
		m.Submit(&Request{Op: OpAdjustWeights, App: 1, Priority: PriorityNormal,
			VIP: vips[0], Weights: []float64{1}, OnDone: done("A")})
	})
	// Switch 0 fails at t=1, while A is in service.
	eng.At(1, func() { f.Switch(0).Health = health.FailedUndetected })
	// B (high) and C (normal) queue at t=2, both targeting healthy switch 1.
	eng.At(2, func() {
		m.Submit(&Request{Op: OpAdjustWeights, App: 1, Priority: PriorityHigh,
			VIP: vips[1], Weights: []float64{1}, OnDone: done("B")})
		m.Submit(&Request{Op: OpAdjustWeights, App: 1, Priority: PriorityNormal,
			VIP: vips[1], Weights: []float64{1}, OnDone: done("C")})
	})
	// Switch 0 repairs at t=4 — before A's resubmission reaches the head
	// of the queue, so A's retry succeeds.
	eng.At(4, func() { f.Switch(0).Health = health.Healthy })
	eng.RunUntil(100)

	// A's slot ends at t=3 → requeued with a fresh seq. B (high) runs
	// 3–6, C (normal, earlier seq than A's resubmission) runs 6–9, then A
	// again 9–12.
	want := []string{"B", "C", "A"}
	if len(order) != len(want) {
		t.Fatalf("completions %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("completion order %v, want %v (resubmission must go to the back of its priority class)", order, want)
		}
	}
	if m.Requeues != 1 {
		t.Fatalf("Requeues = %d, want 1", m.Requeues)
	}
	if m.Processed != 3 {
		t.Fatalf("Processed = %d, want 3", m.Processed)
	}
}

// When the switch stays down, the request surfaces the typed error after
// maxRequeues resubmissions instead of disappearing or spinning forever.
func TestSerializedMidFlightFailureTypedError(t *testing.T) {
	m, eng, vips := setupTwoSwitchVIPs(t)
	f := m.Fabric()

	var got *Request
	eng.At(0, func() {
		m.Submit(&Request{Op: OpAdjustWeights, App: 1, Priority: PriorityNormal,
			VIP: vips[0], Weights: []float64{1}, OnDone: func(r *Request) { got = r }})
	})
	eng.At(1, func() { f.Switch(0).Health = health.FailedUndetected })
	eng.RunUntil(1000)

	if got == nil {
		t.Fatal("request vanished: OnDone never ran")
	}
	if !errors.Is(got.Err, ErrSwitchFailedMidFlight) {
		t.Fatalf("err = %v, want ErrSwitchFailedMidFlight", got.Err)
	}
	if !got.Done {
		t.Fatal("request not marked Done")
	}
	if m.Requeues != maxRequeues {
		t.Fatalf("Requeues = %d, want %d", m.Requeues, maxRequeues)
	}
	if m.Pending() != 0 {
		t.Fatalf("Pending = %d after terminal failure", m.Pending())
	}
}

// A transfer whose DESTINATION switch fails mid-flight is also caught.
func TestSerializedMidFlightDstFailure(t *testing.T) {
	m, eng, vips := setupTwoSwitchVIPs(t)
	f := m.Fabric()

	var got *Request
	eng.At(0, func() {
		m.Submit(&Request{Op: OpTransferVIP, App: 1, Priority: PriorityHigh,
			VIP: vips[0], Dst: 1, OnDone: func(r *Request) { got = r }})
	})
	eng.At(1, func() { f.Switch(1).Health = health.FailedUndetected })
	eng.RunUntil(1000)

	if got == nil || !errors.Is(got.Err, ErrSwitchFailedMidFlight) {
		t.Fatalf("got %+v, want ErrSwitchFailedMidFlight", got)
	}
	if h, _ := f.HomeOf(vips[0]); h != 0 {
		t.Fatalf("VIP moved to %d despite failed destination", h)
	}
}
