package viprip

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"

	"megadc/internal/ipv4"
)

// TestIPPoolProperties drives a pool through random seeded alloc/free
// sequences and checks the allocator's contract at every step:
//
//   - an address is never handed out twice while still registered,
//   - Allocated() tracks the live set exactly,
//   - a full pool returns ErrPoolExhausted (never a panic or a dup),
//   - free-then-alloc recycles the numerically lowest freed address.
func TestIPPoolProperties(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		const size = 64
		p, err := NewIPPool("10.1.0.0", size)
		if err != nil {
			t.Log(err)
			return false
		}
		rng := rand.New(rand.NewSource(seed))
		inUse := map[ipv4.Addr]bool{} // model: addresses currently allocated
		freed := map[ipv4.Addr]bool{} // model: addresses freed and reusable
		var handedOut []ipv4.Addr     // live addresses, for picking a free target
		for _, op := range ops {
			if op%3 != 0 && len(handedOut) > 0 { // free a random live address
				i := rng.Intn(len(handedOut))
				ip := handedOut[i]
				handedOut[i] = handedOut[len(handedOut)-1]
				handedOut = handedOut[:len(handedOut)-1]
				if err := p.Free(ip); err != nil {
					t.Logf("free %s: %v", ip, err)
					return false
				}
				delete(inUse, ip)
				freed[ip] = true
				continue
			}
			ip, err := p.Alloc()
			if len(inUse) == int(size) { // model says full
				if !errors.Is(err, ErrPoolExhausted) {
					t.Logf("full pool: err = %v, want ErrPoolExhausted", err)
					return false
				}
				continue
			}
			if err != nil {
				t.Logf("alloc: %v", err)
				return false
			}
			if inUse[ip] {
				t.Logf("alloc returned %s while it is still registered", ip)
				return false
			}
			if len(freed) > 0 { // must be the lowest freed address
				var low ipv4.Addr
				first := true
				for fa := range freed {
					if first || fa < low { // numeric: the pool's order
						low, first = fa, false
					}
				}
				if ip != low {
					t.Logf("alloc returned %s, want lowest freed %s", ip, low)
					return false
				}
				delete(freed, ip)
			}
			inUse[ip] = true
			handedOut = append(handedOut, ip)
			if p.Allocated() != len(inUse) {
				t.Logf("Allocated() = %d, model has %d", p.Allocated(), len(inUse))
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// TestIPPoolExhaustionIsAnError drains a tiny pool and checks that the
// overflow alloc fails with ErrPoolExhausted — repeatably, without
// panicking — and that a single Free makes Alloc succeed again.
func TestIPPoolExhaustionIsAnError(t *testing.T) {
	p, err := NewIPPool("10.2.0.0", 3)
	if err != nil {
		t.Fatal(err)
	}
	var ips []ipv4.Addr
	for i := 0; i < 3; i++ {
		ip, err := p.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		ips = append(ips, ip)
	}
	for i := 0; i < 2; i++ { // exhaustion must be stable, not one-shot
		if _, err := p.Alloc(); !errors.Is(err, ErrPoolExhausted) {
			t.Fatalf("alloc on full pool (try %d): err = %v, want ErrPoolExhausted", i, err)
		}
	}
	if err := p.Free(ips[1]); err != nil {
		t.Fatal(err)
	}
	ip, err := p.Alloc()
	if err != nil {
		t.Fatalf("alloc after free: %v", err)
	}
	if ip != ips[1] {
		t.Fatalf("alloc after free = %s, want the freed %s", ip, ips[1])
	}
}

// TestIPPoolRecyclesLowestFirst frees a scattered set of addresses and
// checks Alloc returns them in ascending order before touching the
// never-used range.
func TestIPPoolRecyclesLowestFirst(t *testing.T) {
	p, err := NewIPPool("10.0.0.0", 16)
	if err != nil {
		t.Fatal(err)
	}
	var ips []ipv4.Addr
	for i := 0; i < 8; i++ {
		ip, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		ips = append(ips, ip)
	}
	for _, i := range []int{5, 1, 3} {
		if err := p.Free(ips[i]); err != nil {
			t.Fatal(err)
		}
	}
	// Lowest-first recycling: .1, then .3, then .5, then the fresh .8.
	for _, w := range []string{"10.0.0.1", "10.0.0.3", "10.0.0.5", "10.0.0.8"} {
		want := ipv4.MustParse(w)
		got, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("alloc = %s, want %s", got, want)
		}
	}
}

// TestIPPoolLargeScale drives a pool at paper-RIP scale (millions of
// addresses): bulk allocation, scattered frees, and lowest-first
// recycling must all stay sub-linear per op — this test is the guard
// against the O(n) sorted-insert free list regressing back in.
func TestIPPoolLargeScale(t *testing.T) {
	const size = 4 << 20 // 4M addresses, within 10/8
	p, err := NewIPPool("10.0.0.0", size)
	if err != nil {
		t.Fatal(err)
	}
	const n = 1 << 20 // allocate 1M
	ips := make([]ipv4.Addr, 0, n)
	for i := 0; i < n; i++ {
		ip, err := p.Alloc()
		if err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
		ips = append(ips, ip)
	}
	if p.Allocated() != n {
		t.Fatalf("Allocated() = %d, want %d", p.Allocated(), n)
	}
	// Free a scattered seeded subset, tracking the minimum freed.
	rng := rand.New(rand.NewSource(11))
	freed := map[ipv4.Addr]bool{}
	var low ipv4.Addr // 0: none freed yet; the pool never hands out 0.0.0.0 here
	for i := 0; i < 100_000; i++ {
		ip := ips[rng.Intn(n)]
		if freed[ip] {
			continue
		}
		if err := p.Free(ip); err != nil {
			t.Fatalf("free %s: %v", ip, err)
		}
		freed[ip] = true
		if low == 0 || ip < low {
			low = ip
		}
	}
	got, err := p.Alloc()
	if err != nil {
		t.Fatal(err)
	}
	if got != low {
		t.Fatalf("alloc after scattered frees = %s, want lowest freed %s", got, low)
	}
	// Drain the rest of the freed set: must come back ascending.
	prev := low
	for i := 1; i < len(freed); i++ {
		ip, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if ip <= prev {
			t.Fatalf("recycled addresses out of order: %s after %s", ip, prev)
		}
		prev = ip
	}
}

// TestIPPoolOverflowRejected pins the IPv4 address-space overflow guard:
// a pool whose base+size wraps past 255.255.255.255 must be rejected at
// construction, and the largest non-wrapping pool must be accepted.
func TestIPPoolOverflowRejected(t *testing.T) {
	if _, err := NewIPPool("255.255.255.0", 257); err == nil {
		t.Fatal("pool wrapping past 255.255.255.255 was accepted")
	}
	if _, err := NewIPPool("255.255.255.0", 256); err != nil {
		t.Fatalf("largest non-wrapping pool rejected: %v", err)
	}
	p, err := NewIPPool("255.255.255.254", 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []string{"255.255.255.254", "255.255.255.255"} {
		want := ipv4.MustParse(w)
		got, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("alloc = %s, want %s", got, want)
		}
	}
	if _, err := p.Alloc(); !errors.Is(err, ErrPoolExhausted) {
		t.Fatalf("err = %v, want ErrPoolExhausted", err)
	}
}
