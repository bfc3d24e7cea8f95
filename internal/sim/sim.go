// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock (in seconds) and an event queue.
// Events scheduled for the same instant fire in the order they were
// scheduled, which — together with an explicitly seeded random source —
// makes every simulation run exactly reproducible.
//
// The queue is a typed binary min-heap of plain values {at, seq, slot}
// ordered by (at, seq); the callback of each scheduled event sits in a
// slot of a reusable table with a free list. Scheduling therefore
// allocates nothing once the heap and the table have grown to the run's
// standing population, and no heap operation goes through an interface.
package sim

import (
	"fmt"
	"math/rand"
)

// Time is simulated time in seconds since the start of the run.
type Time = float64

// Event is a handle to a scheduled callback, returned by At and After and
// accepted by Cancel. It is a small value: copy it freely. The zero Event
// refers to no event.
//
// A handle names its event by (slot, seq). Sequence numbers are never
// reused, so once the event has fired or been cancelled its handle is
// stale for good: cancelling it is a no-op even after the slot has been
// handed to a later event.
type Event struct {
	slot uint32
	seq  uint64 // 0 only in the zero Event
}

// entry is one heap element. It holds no pointers, so the collector never
// scans the heap array.
type entry struct {
	at   Time
	seq  uint64
	slot uint32
}

func (a entry) less(b entry) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// slot holds one scheduled callback. seq is the sequence number of the
// event occupying it, or 0 while the slot is free: a heap entry whose seq
// no longer matches its slot's was cancelled and is skipped when it
// reaches the top.
type slot struct {
	fn  func()
	seq uint64
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with New.
type Engine struct {
	now    Time
	seq    uint64 // last sequence number handed out
	heap   []entry
	slots  []slot
	free   []uint32 // indices of free slots
	live   int      // scheduled events not yet fired or cancelled
	rng    *rand.Rand
	nSteps uint64
}

// New returns an engine whose random source is seeded with seed.
func New(seed int64) *Engine {
	return &Engine{rng: rand.New(rand.NewSource(seed))}
}

// Now returns the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Steps returns the number of events executed so far.
func (e *Engine) Steps() uint64 { return e.nSteps }

// Pending returns the number of events still scheduled: cancelled events
// do not count, even while their entries wait in the heap.
func (e *Engine) Pending() int { return e.live }

// At schedules fn to run at absolute simulated time t.
// Scheduling in the past panics: it indicates a logic error in the caller.
func (e *Engine) At(t Time, fn func()) Event {
	if !(t >= e.now) { // also rejects NaN, which has no place in the order
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	var s uint32
	if n := len(e.free); n > 0 {
		s = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		s = uint32(len(e.slots))
		e.slots = append(e.slots, slot{})
	}
	e.seq++
	e.slots[s] = slot{fn: fn, seq: e.seq}
	e.live++
	e.heap = append(e.heap, entry{at: t, seq: e.seq, slot: s})
	e.up(len(e.heap) - 1)
	return Event{slot: s, seq: e.seq}
}

// After schedules fn to run d seconds from now. Negative d panics.
func (e *Engine) After(d Time, fn func()) Event {
	return e.At(e.now+d, fn)
}

// Every schedules fn to run first at time start and then every interval
// seconds for as long as fn returns true.
func (e *Engine) Every(start, interval Time, fn func() bool) {
	if interval <= 0 {
		panic("sim: Every interval must be positive")
	}
	var tick func()
	tick = func() {
		if fn() {
			e.After(interval, tick)
		}
	}
	e.At(start, tick)
}

// Cancel prevents a scheduled event from firing and reports whether it
// did. Cancelling the zero Event, an event that already fired or one
// that was already cancelled is a no-op that reports false.
//
// The event's heap entry stays queued and is dropped when it reaches the
// top; its slot is freed at once.
func (e *Engine) Cancel(ev Event) bool {
	if ev.seq == 0 || int(ev.slot) >= len(e.slots) || e.slots[ev.slot].seq != ev.seq {
		return false
	}
	e.release(ev.slot)
	return true
}

// release frees slot s, whose event has fired or been cancelled.
func (e *Engine) release(s uint32) {
	e.slots[s] = slot{}
	e.free = append(e.free, s)
	e.live--
}

// Step executes the next event, if any, advancing the clock to its time.
// It reports whether an event was executed.
func (e *Engine) Step() bool {
	if !e.peek() {
		return false
	}
	e.fire()
	return true
}

// Run executes events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil executes events with time ≤ t, then advances the clock to t.
// Events scheduled for later remain queued.
func (e *Engine) RunUntil(t Time) {
	for e.peek() && e.heap[0].at <= t {
		e.fire()
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor executes events for d seconds of simulated time from now.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// peek drops cancelled entries from the top of the heap and reports
// whether a live event remains there.
func (e *Engine) peek() bool {
	for len(e.heap) > 0 {
		top := e.heap[0]
		if e.slots[top.slot].seq == top.seq {
			return true
		}
		e.pop()
	}
	return false
}

// fire pops the live event at the top of the heap and runs it. The slot
// is freed before the callback runs, so the callback may reuse it.
func (e *Engine) fire() {
	top := e.heap[0]
	e.pop()
	fn := e.slots[top.slot].fn
	e.release(top.slot)
	e.now = top.at
	e.nSteps++
	fn()
}

// pop removes the top entry of the heap.
func (e *Engine) pop() {
	n := len(e.heap) - 1
	e.heap[0] = e.heap[n]
	e.heap = e.heap[:n]
	if n > 1 {
		e.down(0)
	}
}

// up restores the heap order after the entry at i was appended.
func (e *Engine) up(i int) {
	h := e.heap
	x := h[i]
	for i > 0 {
		p := (i - 1) / 2
		if !x.less(h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// down restores the heap order after the entry at i was replaced.
func (e *Engine) down(i int) {
	h := e.heap
	n := len(h)
	x := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].less(h[c]) {
			c = r
		}
		if !h[c].less(x) {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}
