package sim

import (
	"testing"
)

// TestStressLargeHeap pushes a million events through the queue with
// interleaved cancellations — a scale well beyond any experiment, to
// catch heap-index bugs that small tests miss.
func TestStressLargeHeap(t *testing.T) {
	if testing.Short() {
		t.Skip("1M-event stress")
	}
	const n = 1_000_000
	e := New(1)
	fired := 0
	events := make([]Event, 0, n)
	for i := 0; i < n; i++ {
		at := e.Rand().Float64() * 1000
		events = append(events, e.At(at, func() { fired++ }))
	}
	// Cancel every 7th event.
	cancelled := 0
	for i := 0; i < n; i += 7 {
		if !e.Cancel(events[i]) {
			t.Fatalf("Cancel(events[%d]) reported false", i)
		}
		cancelled++
	}
	if e.Pending() != n-cancelled {
		t.Fatalf("pending %d after cancels, want %d", e.Pending(), n-cancelled)
	}
	e.Run()
	if fired != n-cancelled {
		t.Fatalf("fired %d, want %d", fired, n-cancelled)
	}
	if e.Pending() != 0 {
		t.Fatalf("pending %d after Run", e.Pending())
	}
}

// TestStressSelfScheduling exercises deep event chains: each event
// schedules the next, a million deep.
func TestStressSelfScheduling(t *testing.T) {
	if testing.Short() {
		t.Skip("long chain")
	}
	e := New(2)
	const depth = 1_000_000
	n := 0
	var step func()
	step = func() {
		n++
		if n < depth {
			e.After(0.001, step)
		}
	}
	e.At(0, step)
	e.Run()
	if n != depth {
		t.Fatalf("chain ran %d, want %d", n, depth)
	}
}

func BenchmarkHeapChurn(b *testing.B) {
	e := New(3)
	// Keep a standing population of 10k events; each iteration pops one
	// and pushes one — the steady-state pattern of a busy simulation.
	for i := 0; i < 10_000; i++ {
		e.After(e.Rand().Float64()*100, func() {})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.After(e.Rand().Float64()*100, func() {})
		e.Step()
	}
}

func BenchmarkHoldEarliest(b *testing.B) {
	e := New(3)
	// The same standing population, but each fired event schedules the
	// next one earlier than everything pending — the pattern of a
	// request stream's next arrival or an After(0) dispatch.
	for i := 0; i < 10_000; i++ {
		e.After(1000+e.Rand().Float64()*100, func() {})
	}
	var next func()
	next = func() { e.After(1e-9, next) }
	e.After(1e-9, next)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}
