// Package viprip implements the paper's VIP/RIP manager (Section III-C):
// the global-manager component that mediates and serializes every
// VIP/RIP (re)configuration request. All LB switches are a globally
// shared resource; pod managers and the global manager submit requests,
// and the manager processes them sequentially by priority — allocating
// each new VIP on an underloaded switch and each new RIP on a switch
// that already hosts one of the application's VIPs.
//
// Every switch choice goes through the manager's policy.Placement
// (DESIGN.md §15). A new VIP's candidates are the switches with a spare
// VIP slot, each scored by the max of its VIP-count fraction and its
// throughput utilization ("few already-configured VIPs and a low data
// throughput"); the default greedy placement takes the least score.
package viprip

import (
	"errors"
	"fmt"

	"megadc/internal/ids"
	"megadc/internal/ipv4"
)

// IPPool allocates unique IPv4 addresses from a base address. Freed
// addresses are recycled lowest-first, so free-then-alloc always
// returns the numerically lowest available address — a deterministic
// rule property tests can assert. The paper's RIPs come from the
// private 10/8 block; VIPs from the provider's public space.
//
// The pool is sized for the paper's ~6M RIPs: the free list is a binary
// min-heap (O(log n) alloc/free instead of the O(n) sorted-insert a
// slice would need), and in-use tracking is a bitset over the pool's
// offset range (one bit per address) rather than a hash map.
type IPPool struct {
	base uint32
	size uint32
	next uint32
	// freed is a binary min-heap of returned offsets (addr - base); the
	// root is the lowest freed address. Hand-rolled rather than
	// container/heap to keep Alloc/Free allocation-free.
	freed []uint32
	inUse ids.Bitset
	used  int
}

// ErrPoolExhausted is returned when no addresses remain.
var ErrPoolExhausted = errors.New("viprip: IP pool exhausted")

// NewIPPool returns a pool of size addresses starting at the dotted-quad
// base (e.g. "10.0.0.0"). The range must fit the IPv4 address space:
// base + size may not wrap past 255.255.255.255. The base may not be
// 0.0.0.0, which callers use as "no address".
func NewIPPool(base string, size uint32) (*IPPool, error) {
	a, err := ipv4.Parse(base)
	if err != nil {
		return nil, err
	}
	b := uint32(a)
	if b == 0 {
		return nil, errors.New("viprip: pool base 0.0.0.0 is the no-address value")
	}
	if size == 0 {
		return nil, errors.New("viprip: pool size must be positive")
	}
	if uint64(b)+uint64(size) > 1<<32 {
		return nil, fmt.Errorf("viprip: pool %s+%d overflows the IPv4 address space", base, size)
	}
	p := &IPPool{base: b, size: size}
	p.inUse.Grow(int(min(size, 1<<20))) // pre-size small pools fully; big ones grow on demand
	return p, nil
}

// Alloc returns an unused address from the pool: the lowest freed
// address when any exist (all freed addresses precede the never-used
// range), otherwise the next never-used one.
func (p *IPPool) Alloc() (ipv4.Addr, error) {
	var off uint32
	if len(p.freed) > 0 {
		off = p.popMin()
	} else {
		if p.next >= p.size {
			return 0, ErrPoolExhausted
		}
		off = p.next
		p.next++
	}
	p.inUse.Set(int(off))
	p.used++
	return ipv4.Addr(p.base + off), nil
}

// Free returns an address to the pool. Freeing an address that is not
// allocated is an error.
func (p *IPPool) Free(ip ipv4.Addr) error {
	a := uint32(ip)
	if a < p.base || a-p.base >= p.size || !p.inUse.Get(int(a-p.base)) {
		return fmt.Errorf("viprip: %s not allocated from this pool", ip)
	}
	off := a - p.base
	p.inUse.Clear(int(off))
	p.used--
	p.pushMin(off)
	return nil
}

// popMin removes and returns the smallest offset on the free heap.
func (p *IPPool) popMin() uint32 {
	h := p.freed
	minOff := h[0]
	last := len(h) - 1
	h[0] = h[last]
	p.freed = h[:last]
	h = p.freed
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < len(h) && h[l] < h[small] {
			small = l
		}
		if r < len(h) && h[r] < h[small] {
			small = r
		}
		if small == i {
			break
		}
		h[i], h[small] = h[small], h[i]
		i = small
	}
	return minOff
}

// pushMin adds an offset to the free heap.
func (p *IPPool) pushMin(off uint32) {
	p.freed = append(p.freed, off)
	h := p.freed
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent] <= h[i] {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
}

// AllocRange allocates the n never-used addresses that n sequential
// Alloc calls would return, and returns the first: the k-th is first+k.
// The paper-scale bulk loader (core's OnboardAppsBulk) takes all its
// RIPs this way. It fails when freed addresses exist, since Alloc would
// recycle those lowest-first and the range would not be what Alloc
// returns.
func (p *IPPool) AllocRange(n uint32) (first ipv4.Addr, err error) {
	if len(p.freed) > 0 {
		return 0, fmt.Errorf("viprip: pool has %d recycled addresses; a sequential range is invalid", len(p.freed))
	}
	if uint64(p.next)+uint64(n) > uint64(p.size) {
		return 0, ErrPoolExhausted
	}
	start := p.next
	p.inUse.Grow(int(start + n))
	for off := start; off < start+n; off++ {
		p.inUse.Set(int(off))
	}
	p.next += n
	p.used += int(n)
	return ipv4.Addr(p.base + start), nil
}

// Allocated returns the number of addresses currently in use.
func (p *IPPool) Allocated() int { return p.used }

// Capacity returns the pool size.
func (p *IPPool) Capacity() uint32 { return p.size }
