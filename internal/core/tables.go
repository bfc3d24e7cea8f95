package core

import "megadc/internal/ids"

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

// at returns s[i], or the zero value past the end of s: the session
// overlay tables grow only as far as the highest VM or VIP a session
// touched.
func at[T any](s []T, i ids.Index) T {
	if int(i) < len(s) {
		return s[i]
	}
	var zero T
	return zero
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

// stampTable marks dense IDs (VIP handles, app IDs) as seen in the
// current pass and holds one int32 per marked ID, without a clear per
// pass: a slot is live only while its stamp equals the pass's. The
// managers use it in place of a per-step map or a sort of every ID
// they visit. It grows lazily, to the highest ID a pass marks, so a
// platform whose managers never run pays nothing for it.
type stampTable struct {
	stamp []uint32
	val   []int32
	cur   uint32
}

// begin starts a pass: every slot reads unmarked.
func (t *stampTable) begin() {
	t.cur++
	if t.cur == 0 { // wrapped: old stamps could read as current
		clear(t.stamp)
		t.cur = 1
	}
}

// mark marks id in the current pass and returns its value slot, and
// whether this is id's first mark of the pass (the slot then holds a
// stale value the caller must overwrite).
func (t *stampTable) mark(id int) (v *int32, first bool) {
	if id >= len(t.stamp) {
		t.stamp = growSlice(t.stamp, id+1)
		t.val = growSlice(t.val, id+1)
	}
	first = t.stamp[id] != t.cur
	t.stamp[id] = t.cur
	return &t.val[id], first
}
