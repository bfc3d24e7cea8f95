package sim

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refEvent and refQueue are the reference model: the engine's previous
// queue, a container/heap of *refEvent ordered by (at, seq) with eager
// removal on cancel.
type refEvent struct {
	at    Time
	seq   uint64
	id    int
	index int // heap index; -1 once fired or cancelled
}

type refQueue []*refEvent

func (q refQueue) Len() int { return len(q) }
func (q refQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q refQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].index = i
	q[j].index = j
}
func (q *refQueue) Push(x any) {
	ev := x.(*refEvent)
	ev.index = len(*q)
	*q = append(*q, ev)
}
func (q *refQueue) Pop() any {
	old := *q
	ev := old[len(old)-1]
	ev.index = -1
	*q = old[:len(old)-1]
	return ev
}

// refEngine runs the reference queue with the engine's clock rules.
type refEngine struct {
	now Time
	seq uint64
	q   refQueue
}

func (r *refEngine) at(t Time, id int) *refEvent {
	r.seq++
	ev := &refEvent{at: t, seq: r.seq, id: id}
	heap.Push(&r.q, ev)
	return ev
}

func (r *refEngine) cancel(ev *refEvent) bool {
	if ev.index < 0 {
		return false
	}
	heap.Remove(&r.q, ev.index)
	return true
}

// step pops the next event and returns its id, or -1 if none is due by t.
func (r *refEngine) step(t Time) int {
	if len(r.q) == 0 || r.q[0].at > t {
		return -1
	}
	ev := heap.Pop(&r.q).(*refEvent)
	r.now = ev.at
	return ev.id
}

// TestPropertyHeapMatchesReference drives the engine and the reference
// model through the same random schedule — many equal timestamps, events
// that schedule children while firing, cancels before and after firing,
// double cancels, zero-handle cancels and stale-handle cancels after slot
// reuse — and requires the same fire order, the same Cancel results and
// the same Pending after every step. It also requires that the
// earliest-event register orders strictly before the heap top after
// every step, and that every seed exercises the register: events placed
// in it, held entries displaced into the heap by an earlier At, held
// entries cancelled, and held entries tied in time with the heap top.
func TestPropertyHeapMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		e := New(seed)
		ref := &refEngine{}

		type handle struct {
			ev  Event
			ref *refEvent
		}
		var handles []handle
		var fired []int // ids fired by the engine, drained after each op
		spawns := map[int]bool{}
		// schedule puts one event on both sides. A spawning event
		// schedules its child while firing; the child reaches the
		// reference at once, which is harmless: it sorts after its
		// parent, which the reference pops next.
		regHits, displaced, heldCancels, heldTies := 0, 0, 0, 0
		var schedule func(at Time)
		schedule = func(at Time) {
			id := len(handles)
			spawns[id] = rng.Intn(4) == 0
			prev := e.held
			ev := e.At(at, func() {
				fired = append(fired, id)
				if spawns[id] {
					// Scheduled while firing: takes over the slot
					// this event just freed.
					schedule(e.Now() + Time(rng.Intn(3)))
				}
			})
			handles = append(handles, handle{ev, ref.at(at, id)})
			if e.held.seq() == ev.seq {
				regHits++
				if prev.ks != 0 {
					displaced++
				}
			}
		}
		staleReuse, zeroCancels, liveCancels := 0, 0, 0
		for op := 0; op < 3000; op++ {
			switch k := rng.Intn(10); {
			case k < 4:
				// Few distinct offsets, so equal timestamps are common.
				schedule(e.Now() + Time(rng.Intn(4)))
			case k < 6 && len(handles) > 0:
				// A third of the cancels aim at the newest events,
				// which the register often holds.
				i := rng.Intn(len(handles))
				if rng.Intn(3) == 0 {
					i = len(handles) - 1 - rng.Intn(min(3, len(handles)))
				}
				h := handles[i]
				slotBusy := e.slots[h.ev.slot].seq != 0
				wasHeld := e.held.ks != 0 && e.held.seq() == h.ev.seq
				got, want := e.Cancel(h.ev), ref.cancel(h.ref)
				if got != want {
					t.Fatalf("seed %d op %d: Cancel = %v, reference %v", seed, op, got, want)
				}
				if got {
					liveCancels++
					if wasHeld {
						heldCancels++
					}
				} else if slotBusy {
					staleReuse++
				}
			case k == 6:
				if e.Cancel(Event{}) {
					t.Fatalf("seed %d op %d: zero-handle Cancel reported true", seed, op)
				}
				zeroCancels++
			case k < 9:
				fired = fired[:0]
				if !e.Step() {
					if len(ref.q) != 0 {
						t.Fatalf("seed %d op %d: engine empty, reference holds %d", seed, op, len(ref.q))
					}
					break
				}
				if len(ref.q) == 0 {
					t.Fatalf("seed %d op %d: engine fired %v, reference empty", seed, op, fired)
				}
				want := ref.step(ref.q[0].at)
				if len(fired) != 1 || fired[0] != want {
					t.Fatalf("seed %d op %d: Step fired %v, reference %d", seed, op, fired, want)
				}
			default:
				until := e.Now() + Time(rng.Intn(3))
				fired = fired[:0]
				e.RunUntil(until)
				// A child scheduled at ≤ until fires within the same
				// RunUntil, so compare after the fact, in order.
				for i, id := range fired {
					want := ref.step(until)
					if want != id {
						t.Fatalf("seed %d op %d: RunUntil fire %d = %d, reference %d", seed, op, i, id, want)
					}
				}
				if want := ref.step(until); want != -1 {
					t.Fatalf("seed %d op %d: RunUntil left due event %d", seed, op, want)
				}
				ref.now = until
			}
			if e.Pending() != len(ref.q) {
				t.Fatalf("seed %d op %d: Pending = %d, reference %d", seed, op, e.Pending(), len(ref.q))
			}
			if e.Now() != ref.now {
				t.Fatalf("seed %d op %d: Now = %v, reference %v", seed, op, e.Now(), ref.now)
			}
			if e.held.ks != 0 && len(e.heap) > 0 {
				if e.held.before(e.heap[0]) == 0 {
					t.Fatalf("seed %d op %d: held entry %+v does not order before heap top %+v",
						seed, op, e.held, e.heap[0])
				}
				if e.held.key == e.heap[0].key {
					heldTies++
				}
			}
		}
		if staleReuse == 0 || zeroCancels == 0 || liveCancels == 0 {
			t.Fatalf("seed %d: schedule too tame: %d stale-after-reuse, %d zero, %d live cancels",
				seed, staleReuse, zeroCancels, liveCancels)
		}
		if regHits == 0 || displaced == 0 || heldCancels == 0 || heldTies == 0 {
			t.Fatalf("seed %d: register too idle: %d hits, %d displaced, %d held cancels, %d ties with the heap top",
				seed, regHits, displaced, heldCancels, heldTies)
		}
	}
}

// TestEngineSteadyStateAllocFree pins scheduling at zero allocations
// once the heap and the slot table have grown to a standing population:
// After plus Step with a pre-bound callback, with and without a Cancel
// in the cycle.
func TestEngineSteadyStateAllocFree(t *testing.T) {
	e := New(1)
	fn := func() {}
	for i := 0; i < 1000; i++ {
		e.After(e.Rand().Float64()*10, fn)
	}
	cycle := func() {
		e.After(e.Rand().Float64()*10, fn)
		e.Step()
	}
	for i := 0; i < 10_000; i++ {
		cycle()
	}
	if n := testing.AllocsPerRun(10_000, cycle); n != 0 {
		t.Fatalf("After+Step allocates %v times, want 0", n)
	}
	withCancel := func() {
		e.Cancel(e.After(e.Rand().Float64()*10, fn))
		cycle()
	}
	for i := 0; i < 10_000; i++ {
		withCancel()
	}
	if n := testing.AllocsPerRun(10_000, withCancel); n != 0 {
		t.Fatalf("After+Cancel+After+Step allocates %v times, want 0", n)
	}
	// Always earliest: every new event orders before the standing
	// population, so it goes to the register and fires from there.
	for i := 0; i < 1000; i++ {
		e.After(1e6+e.Rand().Float64()*10, fn)
	}
	earliest := func() {
		e.After(0, fn)
		e.Step()
	}
	for i := 0; i < 10_000; i++ {
		earliest()
	}
	if n := testing.AllocsPerRun(10_000, earliest); n != 0 {
		t.Fatalf("always-earliest After+Step allocates %v times, want 0", n)
	}
}

// TestEventPackingBounds pins the packed entry's edges without
// scheduling a mass of events: At panics with its documented message
// once the sequence number would outgrow its bits, and a -0 time orders
// as +0 (its raw bits would sort it after every positive time).
func TestEventPackingBounds(t *testing.T) {
	e := New(1)
	e.seq = maxSeq - 1
	last := e.At(1, func() {})
	if last.seq != maxSeq {
		t.Fatalf("event before the limit got seq %d, want %d", last.seq, uint64(maxSeq))
	}
	func() {
		defer func() {
			want := "sim: more than 1099511627775 events scheduled on one engine"
			if r := recover(); r != want {
				t.Errorf("At past the sequence limit panicked with %v, want %q", r, want)
			}
		}()
		e.At(1, func() {})
	}()
	if e.Pending() != 1 || e.seq != maxSeq {
		t.Errorf("rejected At left Pending = %d, seq = %d; want 1 and %d", e.Pending(), e.seq, uint64(maxSeq))
	}

	e = New(1)
	var got []string
	negZero := math.Copysign(0, -1)
	e.At(1, func() { got = append(got, "one") })
	e.At(negZero, func() {
		got = append(got, "-0")
		if math.Signbit(e.Now()) {
			t.Error("Now() reads -0")
		}
	})
	e.At(0, func() { got = append(got, "+0") })
	e.Run()
	if want := []string{"-0", "+0", "one"}; !slices.Equal(got, want) {
		t.Errorf("fire order %v, want %v", got, want)
	}
}
