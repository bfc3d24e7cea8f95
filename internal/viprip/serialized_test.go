package viprip

import (
	"testing"

	"megadc/internal/ipv4"
	"megadc/internal/lbswitch"
	"megadc/internal/sim"
)

func newSerializedManager(t *testing.T) (*Manager, *sim.Engine) {
	t.Helper()
	f := lbswitch.NewFabric()
	for i := 0; i < 2; i++ {
		f.AddSwitch(lbswitch.CatalystCSM())
	}
	vp, err := NewIPPool("100.64.0.0", 256)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewIPPool("10.0.0.0", 256)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(f, vp, rp)
	eng := sim.New(1)
	m.StartSerialized(eng, 3)
	return m, eng
}

// Serialized processing: one request at a time, each occupying the
// pipeline for serviceTime, highest priority first regardless of
// submission order.
func TestSerializedPriorityAndTiming(t *testing.T) {
	m, eng := newSerializedManager(t)

	var doneAt []float64
	var doneOrder []Priority
	mk := func(p Priority) *Request {
		return &Request{Op: OpAddVIP, App: 1, Priority: p, OnDone: func(r *Request) {
			if r.Err != nil {
				t.Errorf("request failed: %v", r.Err)
			}
			doneAt = append(doneAt, eng.Now())
			doneOrder = append(doneOrder, r.Priority)
		}}
	}
	// Three requests submitted at t=0; low first, to prove reordering.
	eng.At(0, func() {
		m.Submit(mk(PriorityLow))
		m.Submit(mk(PriorityHigh))
		m.Submit(mk(PriorityNormal))
	})
	eng.RunUntil(100)

	// The low request grabbed the idle pipeline at t=0 (nothing else was
	// queued yet); the high and normal ones then wait their turns.
	wantOrder := []Priority{PriorityLow, PriorityHigh, PriorityNormal}
	wantAt := []float64{3, 6, 9}
	if len(doneAt) != 3 {
		t.Fatalf("processed %d requests, want 3", len(doneAt))
	}
	for i := range wantAt {
		if doneOrder[i] != wantOrder[i] || doneAt[i] != wantAt[i] {
			t.Fatalf("completion %d: prio=%v at t=%v, want prio=%v at t=%v",
				i, doneOrder[i], doneAt[i], wantOrder[i], wantAt[i])
		}
	}
	if m.Pending() != 0 {
		t.Fatalf("pending = %d after drain", m.Pending())
	}
}

// A burst while the pipeline is busy accumulates queue wait: the Nth
// same-priority request waits (N-1)×serviceTime.
func TestSerializedQueueWaitAccumulates(t *testing.T) {
	m, eng := newSerializedManager(t)
	var completions []float64
	eng.At(10, func() {
		for i := 0; i < 4; i++ {
			m.Submit(&Request{Op: OpAddVIP, App: 2, Priority: PriorityNormal,
				OnDone: func(r *Request) { completions = append(completions, eng.Now()) }})
		}
	})
	eng.RunUntil(100)
	want := []float64{13, 16, 19, 22}
	if len(completions) != len(want) {
		t.Fatalf("completions: %v", completions)
	}
	for i, w := range want {
		if completions[i] != w {
			t.Fatalf("completion %d at t=%v, want %v", i, completions[i], w)
		}
	}
}

// OnDone submitting a follow-up request must not double-occupy the
// pipeline.
func TestSerializedOnDoneResubmit(t *testing.T) {
	m, eng := newSerializedManager(t)
	var finished float64
	eng.At(0, func() {
		m.Submit(&Request{Op: OpAddVIP, App: 3, Priority: PriorityNormal, OnDone: func(r *Request) {
			m.Submit(&Request{Op: OpAddRIP, App: 3, RIP: ipv4.MustParse("10.9.9.9"), Weight: 1, VIP: r.Result.VIP,
				OnDone: func(r2 *Request) {
					if r2.Err != nil {
						t.Errorf("follow-up failed: %v", r2.Err)
					}
					finished = eng.Now()
				}})
		}})
	})
	eng.RunUntil(100)
	if finished != 6 {
		t.Fatalf("chained completion at t=%v, want 6", finished)
	}
	if m.Processed != 2 {
		t.Fatalf("processed = %d, want 2", m.Processed)
	}
}

// Requests queued before the pipeline starts run once it does, highest
// priority first: the transfer, then the weight change at the VIP's new
// home.
func TestBatchAdjustWeightsAndTransfer(t *testing.T) {
	f := lbswitch.NewFabric()
	for i := 0; i < 2; i++ {
		f.AddSwitch(lbswitch.CatalystCSM())
	}
	vp, err := NewIPPool("100.64.0.0", 256)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewIPPool("10.0.0.0", 256)
	if err != nil {
		t.Fatal(err)
	}
	m := NewManager(f, vp, rp)
	vip, home, err := m.AddVIP(7)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.AddRIP(7, ipv4.MustParse("10.0.0.1"), 2, vip, -1); err != nil {
		t.Fatal(err)
	}
	m.Submit(&Request{Op: OpAdjustWeights, App: 7, Priority: PriorityNormal, VIP: vip, Weights: []float64{2}})
	m.Submit(&Request{Op: OpTransferVIP, App: 7, Priority: PriorityHigh, VIP: vip, Dst: 1 - home})
	out := runQueued(m)
	if len(out) != 2 {
		t.Fatalf("processed %d", len(out))
	}
	for _, r := range out {
		if r.Err != nil {
			t.Fatalf("op %d failed: %v", r.Op, r.Err)
		}
	}
	if h, _ := f.HomeOf(vip); h != 1-home {
		t.Fatalf("transfer did not move the VIP: home=%d", h)
	}
}
