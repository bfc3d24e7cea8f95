package sim

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func TestAtOrdering(t *testing.T) {
	e := New(1)
	var got []int
	e.At(3, func() { got = append(got, 3) })
	e.At(1, func() { got = append(got, 1) })
	e.At(2, func() { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %v, want 3", e.Now())
	}
}

func TestSameTimeFIFO(t *testing.T) {
	e := New(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(5, func() { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-time events out of FIFO order: %v", got)
		}
	}
}

func TestAfter(t *testing.T) {
	e := New(1)
	var at Time
	e.At(10, func() {
		e.After(5, func() { at = e.Now() })
	})
	e.Run()
	if at != 15 {
		t.Errorf("After fired at %v, want 15", at)
	}
}

func TestAtPastPanics(t *testing.T) {
	for _, at := range []Time{5, math.NaN()} {
		e := New(1)
		e.At(10, func() {
			defer func() {
				if recover() == nil {
					t.Errorf("scheduling at %v (now 10) did not panic", at)
				}
			}()
			e.At(at, func() {})
		})
		e.Run()
	}
}

func TestEvery(t *testing.T) {
	e := New(1)
	var times []Time
	e.Every(2, 3, func() bool {
		times = append(times, e.Now())
		return len(times) < 4
	})
	e.Run()
	want := []Time{2, 5, 8, 11}
	if len(times) != len(want) {
		t.Fatalf("fired %d times, want %d", len(times), len(want))
	}
	for i := range want {
		if times[i] != want[i] {
			t.Errorf("tick %d at %v, want %v", i, times[i], want[i])
		}
	}
}

func TestEveryBadIntervalPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("Every with interval 0 did not panic")
		}
	}()
	New(1).Every(0, 0, func() bool { return false })
}

func TestCancel(t *testing.T) {
	e := New(1)
	fired := false
	ev := e.At(5, func() { fired = true })
	if !e.Cancel(ev) {
		t.Error("Cancel of a scheduled event reported false")
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after Cancel, want 0", e.Pending())
	}
	e.Run()
	if fired {
		t.Error("cancelled event fired")
	}
	// Double cancel, cancel-after-fire and the zero Event are no-ops.
	if e.Cancel(ev) {
		t.Error("double Cancel reported true")
	}
	fired2 := false
	ev2 := e.At(6, func() { fired2 = true }) // takes over ev's slot
	if ev2.slot != ev.slot {
		t.Fatalf("slot not reused: %d then %d", ev.slot, ev2.slot)
	}
	if e.Cancel(ev) {
		t.Error("stale handle cancelled the event that reused its slot")
	}
	e.Run()
	if !fired2 {
		t.Error("event behind a stale cancel did not fire")
	}
	if e.Cancel(ev2) {
		t.Error("Cancel after fire reported true")
	}
	if e.Cancel(Event{}) {
		t.Error("Cancel of the zero Event reported true")
	}
	if e.Pending() != 0 || e.Steps() != 1 {
		t.Errorf("Pending = %d, Steps = %d, want 0 and 1", e.Pending(), e.Steps())
	}
}

func TestCancelMiddleOfHeap(t *testing.T) {
	e := New(1)
	var got []Time
	evs := make([]Event, 0, 20)
	for i := 1; i <= 20; i++ {
		tt := Time(i)
		evs = append(evs, e.At(tt, func() { got = append(got, tt) }))
	}
	// Cancel every third event.
	cancelled := 0
	for i := 0; i < len(evs); i += 3 {
		if !e.Cancel(evs[i]) {
			t.Fatalf("Cancel(evs[%d]) reported false", i)
		}
		cancelled++
	}
	if e.Pending() != len(evs)-cancelled {
		t.Errorf("Pending = %d, want %d", e.Pending(), len(evs)-cancelled)
	}
	e.Run()
	for _, at := range got {
		if int(at-1)%3 == 0 {
			t.Errorf("cancelled event at %v fired", at)
		}
	}
	if len(got) != len(evs)-cancelled {
		t.Errorf("fired %d events, want %d", len(got), len(evs)-cancelled)
	}
	if !sort.Float64sAreSorted(got) {
		t.Errorf("events fired out of order: %v", got)
	}
}

func TestRunUntil(t *testing.T) {
	e := New(1)
	var fired []Time
	for _, at := range []Time{1, 2, 3, 4, 5} {
		at := at
		e.At(at, func() { fired = append(fired, at) })
	}
	e.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("RunUntil(3) fired %d events, want 3", len(fired))
	}
	if e.Now() != 3 {
		t.Errorf("Now() = %v, want 3", e.Now())
	}
	e.RunUntil(10)
	if len(fired) != 5 {
		t.Errorf("after RunUntil(10) fired %d events, want 5", len(fired))
	}
	if e.Now() != 10 {
		t.Errorf("Now() = %v, want 10 (clock advances to target)", e.Now())
	}
}

func TestRunFor(t *testing.T) {
	e := New(1)
	n := 0
	e.Every(1, 1, func() bool { n++; return true })
	e.RunFor(5.5)
	if n != 5 {
		t.Errorf("RunFor(5.5) ticked %d times, want 5", n)
	}
	e.RunFor(3)
	if n != 8 {
		t.Errorf("after RunFor(3) more, ticked %d times, want 8", n)
	}
}

func TestStepsAndPending(t *testing.T) {
	e := New(1)
	e.At(1, func() {})
	e.At(2, func() {})
	if e.Pending() != 2 {
		t.Errorf("Pending = %d, want 2", e.Pending())
	}
	e.Run()
	if e.Steps() != 2 {
		t.Errorf("Steps = %d, want 2", e.Steps())
	}
	if e.Pending() != 0 {
		t.Errorf("Pending = %d after Run, want 0", e.Pending())
	}
}

func TestDeterminism(t *testing.T) {
	run := func(seed int64) []float64 {
		e := New(seed)
		var out []float64
		for i := 0; i < 50; i++ {
			e.After(e.Rand().Float64()*10, func() {
				out = append(out, e.Now()+e.Rand().Float64())
			})
		}
		e.Run()
		return out
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs with same seed diverged at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: however events are scheduled, they always fire in
// non-decreasing time order.
func TestPropertyEventsFireInOrder(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New(7)
		var fired []Time
		for _, d := range delays {
			at := Time(d) / 100
			e.At(at, func() { fired = append(fired, at) })
		}
		e.Run()
		return sort.Float64sAreSorted(fired) && len(fired) == len(delays)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(1))}); err != nil {
		t.Error(err)
	}
}
