package core

import (
	"slices"

	"megadc/internal/cluster"
	"megadc/internal/ids"
)

// Struct-of-arrays hot-path tables (DESIGN.md §13).
//
// The platform's per-entity state used to live in ~20 map fields keyed
// by string-ish IDs. At the paper's scale (~300K apps, ~6M RIPs) every
// Propagate paid a map lookup — hash, probe, pointer chase — per
// entity touched. The tables here replace those maps with flat slices
// indexed by dense integer IDs: cluster IDs (apps, VMs, pods, servers,
// switches) are already contiguous by construction, VIPs carry the
// dense handles lbswitch.Fabric assigns at first placement, and RIP
// bindings are kept by VMID. Dirty sets and membership flags are
// bitsets, whose ascending iteration is inherently sorted — replacing
// the O(n)-per-insert sorted mirrors the map design needed for
// deterministic traversal.
//
// Wholesale invalidation (a full recompute clears every fluid value)
// uses epochs instead of memset: each slot carries the epoch it was
// written in, and bumping the current epoch makes every slot read as
// zero in O(1). At 300K servers the fluid VM table alone is >100 MB;
// clearing it per full recompute would dominate the pass.

// epochF64 is a dense float64 table with O(1) clear-all via epoch
// invalidation. The zero value is unusable; call init first.
type epochF64 struct {
	vals []float64
	ep   []uint32
	cur  uint32
}

func (e *epochF64) init() { e.cur = 1 }

func (e *epochF64) grow(n int) {
	if n <= len(e.vals) {
		return
	}
	e.vals = growSlice(e.vals, n)
	e.ep = growSlice(e.ep, n)
}

// get returns the value at i, or 0 when unset or out of range.
func (e *epochF64) get(i ids.Index) float64 {
	if int(i) >= len(e.vals) || e.ep[i] != e.cur {
		return 0
	}
	return e.vals[i]
}

func (e *epochF64) set(i ids.Index, v float64) {
	e.grow(int(i) + 1)
	e.vals[i] = v
	e.ep[i] = e.cur
}

// del marks slot i unset.
func (e *epochF64) del(i ids.Index) {
	if int(i) < len(e.ep) {
		e.ep[i] = 0
	}
}

// clearAll invalidates every slot in O(1) by advancing the epoch. On
// the (practically unreachable) uint32 wrap it falls back to a memset.
func (e *epochF64) clearAll() {
	e.cur++
	if e.cur == 0 {
		clear(e.ep)
		e.cur = 1
	}
}

// epochRes is epochF64 for cluster.Resources values.
type epochRes struct {
	vals []cluster.Resources
	ep   []uint32
	cur  uint32
}

func (e *epochRes) init() { e.cur = 1 }

func (e *epochRes) grow(n int) {
	if n <= len(e.vals) {
		return
	}
	e.vals = growSlice(e.vals, n)
	e.ep = growSlice(e.ep, n)
}

// reserve makes room for n more slots without changing the length.
func (e *epochRes) reserve(n int) {
	e.vals = slices.Grow(e.vals, n)
	e.ep = slices.Grow(e.ep, n)
}

func (e *epochRes) get(i ids.Index) cluster.Resources {
	if int(i) >= len(e.vals) || e.ep[i] != e.cur {
		return cluster.Resources{}
	}
	return e.vals[i]
}

func (e *epochRes) set(i ids.Index, v cluster.Resources) {
	e.grow(int(i) + 1)
	e.vals[i] = v
	e.ep[i] = e.cur
}

func (e *epochRes) add(i ids.Index, v cluster.Resources) {
	e.set(i, e.get(i).Add(v))
}

func (e *epochRes) del(i ids.Index) {
	if int(i) < len(e.ep) {
		e.ep[i] = 0
	}
}

func (e *epochRes) clearAll() {
	e.cur++
	if e.cur == 0 {
		clear(e.ep)
		e.cur = 1
	}
}

// growSlice extends s to length n (zero-filled), amortizing
// reallocations with 1.5× headroom.
func growSlice[T any](s []T, n int) []T {
	if n <= len(s) {
		return s
	}
	if n <= cap(s) {
		return s[:n]
	}
	ns := make([]T, n, n+n/2)
	copy(ns, s)
	return ns
}

// growFill extends s to length n, filling new slots with fill (used
// for tables whose empty slot is a -1 sentinel, not the zero value).
func growFill[T any](s []T, n int, fill T) []T {
	if n <= len(s) {
		return s
	}
	if n > cap(s) {
		ns := make([]T, len(s), n+n/2)
		copy(ns, s)
		s = ns
	}
	for len(s) < n {
		s = append(s, fill)
	}
	return s
}
