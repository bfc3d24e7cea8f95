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
