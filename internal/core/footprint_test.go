package core

import (
	"os"
	"runtime"
	"testing"
	"unsafe"
)

// TestLedgerEntryLayout pins Propagate's per-VM ledger entry at 16
// bytes, a VM ID and the network part of the fluid demand: the CPU part
// derives from the entry's VIP record (appliedVIP.vmRes), and fluid
// demand has no memory part. The per-VIP record, which carries what the
// CPU part derives from, stays within 56 bytes.
func TestLedgerEntryLayout(t *testing.T) {
	if n := unsafe.Sizeof(appliedVM{}); n != 16 {
		t.Errorf("appliedVM is %d bytes, want 16", n)
	}
	if n := unsafe.Sizeof(appliedVIP{}); n > 56 {
		t.Errorf("appliedVIP is %d bytes, want at most 56", n)
	}
}

// maxHeapPerVM bounds the live heap of a 10K-server scale build, per
// VM, after a collection. The build holds 200K VMs with one RIP each;
// the bound covers every per-VM record (cluster VM record and
// membership entries, RIP group entry, ledger entry, the platform's
// RIP and home tables) and every per-app and per-switch record spread
// over them (DESIGN.md §13).
const maxHeapPerVM = 150

// TestScaleFootprint10K measures the live heap a 10K-server tier holds
// after BuildScalePlatform and bounds it per VM, so a record that grows
// by 8 bytes per VM fails here before it costs the 300K tier 48 MB.
// Like the scale smoke it runs only with MEGADC_SCALE_SMOKE=1: the
// bound is a runtime heap reading, kept away from the race detector's
// and the allocator's variations in the other test runs.
func TestScaleFootprint10K(t *testing.T) {
	if os.Getenv("MEGADC_SCALE_SMOKE") == "" {
		t.Skip("set MEGADC_SCALE_SMOKE=1 to run the 10K footprint check")
	}
	spec := ScaleSpecFor(10_000)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	p, err := BuildScalePlatform(spec)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(p)
	perVM := float64(after.HeapAlloc-before.HeapAlloc) / float64(spec.NumVMs())
	t.Logf("%d VMs: live heap %.1f MB, %.1f B/VM", spec.NumVMs(),
		float64(after.HeapAlloc-before.HeapAlloc)/(1<<20), perVM)
	if perVM > maxHeapPerVM {
		t.Errorf("live heap %.1f B/VM, want at most %d", perVM, maxHeapPerVM)
	}
}
