// Package sim provides a deterministic discrete-event simulation engine.
//
// The engine maintains a virtual clock (in seconds) and an event queue.
// Events scheduled for the same instant fire in the order they were
// scheduled, which — together with an explicitly seeded random source —
// makes every simulation run exactly reproducible.
//
// The queue is an earliest-event register in front of a typed binary
// min-heap. Both hold 16-byte plain values: the event time's float bits
// and the sequence number packed with a slot index, ordered by (at, seq)
// through one branch-free 128-bit compare. An event scheduled ahead of
// everything pending waits in the register and fires from there, without
// a sift. The callback of each scheduled event sits in a slot of a
// reusable table with a free list. Scheduling therefore allocates
// nothing once the heap and the table have grown to the run's standing
// population, and no queue operation goes through an interface.
package sim

import (
	"fmt"
	"math"
	"math/bits"
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

// Packed widths of an entry's ks word: the low slotBits bits hold the
// slot index and the rest the sequence number. 2^24 slots bound the
// standing population: the largest in the tests is TestStressLargeHeap's
// million, and the bench workloads stay under 8,192. 2^40 sequence
// numbers bound the events one engine schedules in its lifetime, about
// 30 hours at 10M events per wall second. At panics before either would
// overflow.
const (
	slotBits = 24
	maxSlots = 1 << slotBits
	maxSeq   = 1<<(64-slotBits) - 1
)

// entry is one queued event, 16 bytes. key is math.Float64bits of the
// event time, which orders like the time itself because times are never
// negative (-0 is stored as +0); ks is seq<<slotBits | slot. Sequence
// numbers are unique, so (key, ks) compared as one 128-bit unsigned
// number is the (at, seq) order. Entries hold no pointers, so the
// collector never scans the heap array.
type entry struct {
	key uint64
	ks  uint64
}

// before returns 1 if a orders before b and 0 otherwise. The compare is
// the borrow out of a 128-bit subtraction, so it takes no branch.
func (a entry) before(b entry) uint64 {
	_, borrow := bits.Sub64(a.ks, b.ks, 0)
	_, borrow = bits.Sub64(a.key, b.key, borrow)
	return borrow
}

func (a entry) at() Time     { return math.Float64frombits(a.key) }
func (a entry) seq() uint64  { return a.ks >> slotBits }
func (a entry) slot() uint32 { return uint32(a.ks & (maxSlots - 1)) }

// slot holds one scheduled callback. seq is the sequence number of the
// event occupying it, or 0 while the slot is free: a queued entry whose
// seq no longer matches its slot's was cancelled and is dropped when it
// reaches the register.
type slot struct {
	fn  func()
	seq uint64
}

// Engine is a discrete-event simulator. The zero value is not usable;
// construct with New.
type Engine struct {
	now Time
	seq uint64 // last sequence number handed out
	// held is the earliest-event register: when held.ks != 0 it is an
	// entry that orders strictly before every heap entry, kept out of
	// the heap so that an event scheduled ahead of everything pending
	// neither climbs to the root nor sifts back down when it fires.
	held   entry
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
// do not count, even while their entries wait in the queue.
func (e *Engine) Pending() int { return e.live }

// At schedules fn to run at absolute simulated time t.
// Scheduling in the past panics: it indicates a logic error in the caller.
// So does scheduling more than 2^40−1 events on one engine, or more than
// 2^24 pending at once: neither fits an entry's packed widths.
func (e *Engine) At(t Time, fn func()) Event {
	if !(t >= e.now) { // also rejects NaN, which has no place in the order
		panic(fmt.Sprintf("sim: scheduling event at %v before now %v", t, e.now))
	}
	if e.seq == maxSeq {
		panic(fmt.Sprintf("sim: more than %d events scheduled on one engine", uint64(maxSeq)))
	}
	var s uint32
	if n := len(e.free); n > 0 {
		s = e.free[n-1]
		e.free = e.free[:n-1]
	} else {
		if len(e.slots) == maxSlots {
			panic(fmt.Sprintf("sim: more than %d events pending at once", maxSlots))
		}
		s = uint32(len(e.slots))
		e.slots = append(e.slots, slot{})
	}
	e.seq++
	e.slots[s] = slot{fn: fn, seq: e.seq}
	e.live++
	if t == 0 {
		t = 0 // -0 would order after every positive time
	}
	x := entry{key: math.Float64bits(t), ks: e.seq<<slotBits | uint64(s)}
	switch {
	case e.held.ks == 0 && (len(e.heap) == 0 || x.before(e.heap[0]) == 1):
		e.held = x
	case e.held.ks != 0 && x.before(e.held) == 1:
		e.push(e.held)
		e.held = x
	default:
		e.push(x)
	}
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
// The event's entry stays queued and is dropped when it reaches the
// register; its slot is freed at once.
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
	for e.peek() && e.held.at() <= t {
		e.fire()
	}
	if t > e.now {
		e.now = t
	}
}

// RunFor executes events for d seconds of simulated time from now.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }

// peek leaves the next live event in the register and reports whether
// there is one. It drops a cancelled held entry, and while the register
// is empty it moves the heap top into it, dropping cancelled tops.
func (e *Engine) peek() bool {
	for {
		if e.held.ks != 0 {
			if e.slots[e.held.slot()].seq == e.held.seq() {
				return true
			}
			e.held.ks = 0
		}
		if len(e.heap) == 0 {
			return false
		}
		e.held = e.heap[0]
		e.pop()
	}
}

// fire empties the register and runs the event it held. The slot is
// freed before the callback runs, so the callback may reuse it.
func (e *Engine) fire() {
	x := e.held
	e.held.ks = 0
	s := x.slot()
	fn := e.slots[s].fn
	e.release(s)
	e.now = x.at()
	e.nSteps++
	fn()
}

// push adds x to the heap.
func (e *Engine) push(x entry) {
	e.heap = append(e.heap, x)
	e.up(len(e.heap) - 1)
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
		if x.before(h[p]) == 0 {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
}

// down restores the heap order after the entry at i was replaced. The
// smaller child is picked by adding the compare's result to the left
// child's index, not by a branch.
func (e *Engine) down(i int) {
	h := e.heap
	n := len(h)
	x := h[i]
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n {
			c += int(h[r].before(h[c]))
		}
		if h[c].before(x) == 0 {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = x
}
