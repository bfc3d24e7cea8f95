package lbswitch

import (
	"testing"
	"unsafe"
)

// TestRequestPathLayout pins the switch fields a request arrival and
// completion touch, Health and Req, inside one line-aligned 64-byte
// window, and the struct at a whole number of lines, so that the
// allocator's size class for it starts every switch on a line: the
// window is then one cache line of every switch a fabric creates.
func TestRequestPathLayout(t *testing.T) {
	const line = 64
	var s Switch
	h, r := unsafe.Offsetof(s.Health), unsafe.Offsetof(s.Req)
	lo := min(h, r)
	hi := max(h+unsafe.Sizeof(s.Health), r+unsafe.Sizeof(s.Req)) - 1
	if lo/line != hi/line {
		t.Errorf("Health at %d and Req at %d span bytes %d..%d, more than one %d-byte line", h, r, lo, hi, line)
	}
	if size := unsafe.Sizeof(s); size%line != 0 {
		t.Errorf("Switch is %d bytes, not a whole number of %d-byte lines", size, line)
	}
	f := NewFabric()
	for i := 0; i < 64; i++ {
		if addr := uintptr(unsafe.Pointer(f.AddSwitch(smallLimits()))); addr%line != 0 {
			t.Fatalf("switch %d at %#x is not line-aligned", i, addr)
		}
	}
}
