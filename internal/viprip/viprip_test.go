package viprip

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"megadc/internal/ipv4"
	"megadc/internal/lbswitch"
	"megadc/internal/policy"
	"megadc/internal/sim"
	"megadc/internal/trace"
)

func TestIPPoolAllocFree(t *testing.T) {
	p, err := NewIPPool("10.0.0.0", 3)
	if err != nil {
		t.Fatal(err)
	}
	a, _ := p.Alloc()
	b, _ := p.Alloc()
	c, _ := p.Alloc()
	if a != ipv4.MustParse("10.0.0.0") || b != ipv4.MustParse("10.0.0.1") || c != ipv4.MustParse("10.0.0.2") {
		t.Errorf("allocs = %s %s %s", a, b, c)
	}
	if _, err := p.Alloc(); !errors.Is(err, ErrPoolExhausted) {
		t.Errorf("4th alloc err = %v", err)
	}
	if err := p.Free(b); err != nil {
		t.Fatal(err)
	}
	if err := p.Free(b); err == nil {
		t.Error("double free accepted")
	}
	d, _ := p.Alloc()
	if d != b {
		t.Errorf("recycled = %s, want %s", d, b)
	}
	if p.Allocated() != 3 || p.Capacity() != 3 {
		t.Errorf("Allocated/Capacity = %d/%d", p.Allocated(), p.Capacity())
	}
}

func TestIPPoolCrossOctet(t *testing.T) {
	p, _ := NewIPPool("10.0.0.254", 4)
	var got []ipv4.Addr
	for i := 0; i < 4; i++ {
		s, err := p.Alloc()
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, s)
	}
	want := []string{"10.0.0.254", "10.0.0.255", "10.0.1.0", "10.0.1.1"}
	for i := range want {
		if got[i].String() != want[i] {
			t.Errorf("alloc %d = %s, want %s", i, got[i], want[i])
		}
	}
}

func TestIPPoolValidation(t *testing.T) {
	if _, err := NewIPPool("not-an-ip", 5); err == nil {
		t.Error("bad base accepted")
	}
	if _, err := NewIPPool("300.0.0.1", 5); err == nil {
		t.Error("octet > 255 accepted")
	}
	if _, err := NewIPPool("10.0.0.0", 0); err == nil {
		t.Error("zero size accepted")
	}
	p, _ := NewIPPool("10.0.0.0", 5)
	if err := p.Free(ipv4.MustParse("192.0.2.1")); err == nil {
		t.Error("freeing an address outside the pool accepted")
	}
	if err := p.Free(ipv4.MustParse("10.0.0.4")); err == nil {
		t.Error("freeing never-allocated accepted")
	}
}

// Property: the pool never hands out the same address twice while it is
// in use.
func TestPropertyIPPoolUnique(t *testing.T) {
	f := func(ops []bool, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		p, err := NewIPPool("192.168.0.0", 32)
		if err != nil {
			return false
		}
		live := make(map[ipv4.Addr]bool)
		var addrs []ipv4.Addr
		for _, alloc := range ops {
			if alloc {
				a, err := p.Alloc()
				if errors.Is(err, ErrPoolExhausted) {
					continue
				}
				if err != nil || live[a] {
					return false
				}
				live[a] = true
				addrs = append(addrs, a)
			} else if len(addrs) > 0 {
				i := rng.Intn(len(addrs))
				if err := p.Free(addrs[i]); err != nil {
					return false
				}
				delete(live, addrs[i])
				addrs = append(addrs[:i], addrs[i+1:]...)
			}
		}
		return p.Allocated() == len(live)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}

func newTestManager(t *testing.T, nSwitches int) *Manager {
	t.Helper()
	fab := lbswitch.NewFabric()
	for i := 0; i < nSwitches; i++ {
		fab.AddSwitch(lbswitch.Limits{MaxVIPs: 4, MaxRIPs: 8, ThroughputMbps: 100, MaxConns: 100, MaxPPS: 1000})
	}
	vp, err := NewIPPool("198.51.100.0", 64)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := NewIPPool("10.0.0.0", 256)
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(fab, vp, rp)
}

// runQueued runs m's serialized pipeline until its queue is empty,
// starting it on a fresh engine if it is not running yet, and returns
// the requests that were waiting in completion order.
func runQueued(m *Manager) []*Request {
	var done []*Request
	waiting := m.queue
	if m.inflight != nil {
		waiting = append([]*Request{m.inflight}, waiting...)
	}
	for _, r := range waiting {
		next := r.OnDone
		r.OnDone = func(r *Request) {
			done = append(done, r)
			if next != nil {
				next(r)
			}
		}
	}
	if !m.Serialized() {
		m.StartSerialized(sim.New(1), 1)
	}
	m.eng.Run()
	return done
}

func TestAddVIPLeastVIPs(t *testing.T) {
	m := newTestManager(t, 3)
	homes := make(map[lbswitch.SwitchID]int)
	for i := 0; i < 6; i++ {
		_, sw, err := m.AddVIP(1)
		if err != nil {
			t.Fatal(err)
		}
		homes[sw]++
	}
	// With no load the blend score is the VIP-count fraction, so 6 VIPs
	// spread as 2/2/2.
	for id, n := range homes {
		if n != 2 {
			t.Errorf("switch %d got %d VIPs, want 2 (homes=%v)", id, n, homes)
		}
	}
	if err := m.Fabric().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestAddVIPExhaustion(t *testing.T) {
	m := newTestManager(t, 1)
	for i := 0; i < 4; i++ {
		if _, _, err := m.AddVIP(1); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := m.AddVIP(1); !errors.Is(err, ErrNoSwitch) {
		t.Errorf("err = %v, want ErrNoSwitch", err)
	}
}

func TestDelVIPRecyclesAddress(t *testing.T) {
	m := newTestManager(t, 1)
	vip, _, err := m.AddVIP(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.DelVIP(vip); err != nil {
		t.Fatal(err)
	}
	vip2, _, err := m.AddVIP(2)
	if err != nil {
		t.Fatal(err)
	}
	if vip2 != vip {
		t.Errorf("address not recycled: %s vs %s", vip2, vip)
	}
	if err := m.DelVIP(ipv4.MustParse("203.0.113.9")); err == nil {
		t.Error("deleting unknown VIP accepted")
	}
}

func TestAddRIPPrefersLeastPressuredVIPSwitch(t *testing.T) {
	m := newTestManager(t, 2)
	v1, s1, _ := m.AddVIP(1)
	v2, s2, _ := m.AddVIP(1)
	if s1 == s2 {
		t.Fatal("test setup expects VIPs on distinct switches")
	}
	// Pressure switch s1 with load.
	m.Fabric().Switch(s1).SetVIPLoad(v1, 90)
	rip, _ := m.AllocRIP()
	vip, sw, err := m.AddRIP(1, rip, 1, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	if sw != s2 || vip != v2 {
		t.Errorf("RIP went to switch %d VIP %s; want unloaded switch %d VIP %s", sw, vip, s2, v2)
	}
}

func TestAddRIPPreferredVIP(t *testing.T) {
	m := newTestManager(t, 2)
	v1, s1, _ := m.AddVIP(1)
	m.AddVIP(1)
	rip, _ := m.AllocRIP()
	vip, sw, err := m.AddRIP(1, rip, 2, v1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if vip != v1 || sw != s1 {
		t.Errorf("preferred ignored: %s on %d", vip, sw)
	}
	if _, _, err := m.AddRIP(1, rip, 1, ipv4.MustParse("203.0.113.77"), -1); err == nil {
		t.Error("unknown preferred VIP accepted")
	}
}

func TestAddRIPNoVIPs(t *testing.T) {
	m := newTestManager(t, 1)
	rip, _ := m.AllocRIP()
	if _, _, err := m.AddRIP(5, rip, 1, 0, -1); !errors.Is(err, ErrNoVIPForApp) {
		t.Errorf("err = %v, want ErrNoVIPForApp", err)
	}
}

func TestDelRIP(t *testing.T) {
	m := newTestManager(t, 1)
	m.AddVIP(1)
	rip, _ := m.AllocRIP()
	if _, _, err := m.AddRIP(1, rip, 1, 0, -1); err != nil {
		t.Fatal(err)
	}
	if err := m.DelRIP(1, rip); err != nil {
		t.Fatal(err)
	}
	if err := m.DelRIP(1, rip); err == nil {
		t.Error("double DelRIP accepted")
	}
	if err := m.FreeRIP(rip); err != nil {
		t.Errorf("FreeRIP: %v", err)
	}
}

func TestAdjustWeightsPreservesTotal(t *testing.T) {
	m := newTestManager(t, 1)
	vip, sw, _ := m.AddVIP(1)
	r1, _ := m.AllocRIP()
	r2, _ := m.AllocRIP()
	m.AddRIP(1, r1, 1, vip, -1)
	m.AddRIP(1, r2, 3, vip, -1)
	// Valid: total stays 4.
	if err := m.AdjustWeights(vip, []float64{2, 2}); err != nil {
		t.Fatal(err)
	}
	_, ws, _ := m.Fabric().Switch(sw).Weights(vip)
	if ws[0] != 2 || ws[1] != 2 {
		t.Errorf("weights = %v", ws)
	}
	// Invalid: total changes.
	if err := m.AdjustWeights(vip, []float64{3, 2}); err == nil {
		t.Error("total-changing adjustment accepted")
	}
	// Invalid: wrong arity.
	if err := m.AdjustWeights(vip, []float64{4}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := m.AdjustWeights(ipv4.MustParse("203.0.113.88"), []float64{1}); err == nil {
		t.Error("unknown VIP accepted")
	}
}

// Do is the unserialized control plane's direct write: the operation
// lands at once, bypasses the queue and its counters, and still runs
// OnDone with the result.
func TestDoAppliesAtOnce(t *testing.T) {
	m := newTestManager(t, 2)
	vip, sw, _ := m.AddVIP(1)
	r1, _ := m.AllocRIP()
	r2, _ := m.AllocRIP()
	m.AddRIP(1, r1, 1, vip, -1)
	m.AddRIP(1, r2, 3, vip, -1)
	var done *Request
	r := &Request{Op: OpAdjustWeights, App: 1, VIP: vip, Weights: []float64{2, 2},
		OnDone: func(r *Request) { done = r }}
	m.Do(r)
	if done != r || r.Err != nil || !r.Done {
		t.Fatalf("OnDone got %v, err %v, done %v", done, r.Err, r.Done)
	}
	if _, ws, _ := m.Fabric().Switch(sw).Weights(vip); ws[0] != 2 || ws[1] != 2 {
		t.Errorf("weights = %v, want [2 2]", ws)
	}
	if m.Processed != 0 || m.Pending() != 0 {
		t.Errorf("processed = %d, pending = %d; Do must bypass the queue", m.Processed, m.Pending())
	}
	dst := lbswitch.SwitchID(1 - sw)
	tr := &Request{Op: OpTransferVIP, VIP: vip, Dst: dst}
	m.Do(tr)
	if home, _ := m.Fabric().HomeOf(vip); tr.Err != nil || home != dst {
		t.Errorf("transfer: err %v, home %d, want %d", tr.Err, home, dst)
	}
}

func TestQueuePriorityOrder(t *testing.T) {
	m := newTestManager(t, 3)
	low := &Request{Op: OpAddVIP, App: 1, Priority: PriorityLow}
	high := &Request{Op: OpAddVIP, App: 2, Priority: PriorityHigh}
	norm := &Request{Op: OpAddVIP, App: 3, Priority: PriorityNormal}
	m.Submit(low)
	m.Submit(high)
	m.Submit(norm)
	if m.Pending() != 3 {
		t.Errorf("Pending = %d", m.Pending())
	}
	done := runQueued(m)
	if len(done) != 3 || done[0] != high || done[1] != norm || done[2] != low {
		t.Errorf("execution order wrong: %v", []*Request{done[0], done[1], done[2]})
	}
	for _, r := range done {
		if !r.Done || r.Err != nil {
			t.Errorf("request %+v not done cleanly", r)
		}
		if r.Result.VIP == 0 {
			t.Error("no VIP in result")
		}
	}
	if m.Pending() != 0 || m.Processed != 3 {
		t.Errorf("Pending/Processed = %d/%d", m.Pending(), m.Processed)
	}
}

func TestQueueFIFOWithinPriority(t *testing.T) {
	m := newTestManager(t, 3)
	var reqs []*Request
	for i := 0; i < 5; i++ {
		r := &Request{Op: OpAddVIP, App: 1, Priority: PriorityNormal}
		reqs = append(reqs, r)
		m.Submit(r)
	}
	done := runQueued(m)
	for i := range reqs {
		if done[i] != reqs[i] {
			t.Fatalf("FIFO violated at %d", i)
		}
	}
}

func TestQueueOps(t *testing.T) {
	m := newTestManager(t, 1)
	add := &Request{Op: OpAddVIP, App: 1}
	m.Submit(add)
	runQueued(m)
	rip, _ := m.AllocRIP()
	addRIP := &Request{Op: OpAddRIP, App: 1, RIP: rip, Weight: 1}
	m.Submit(addRIP)
	delRIP := &Request{Op: OpDelRIP, App: 1, RIP: rip}
	m.Submit(delRIP)
	delVIP := &Request{Op: OpDelVIP, VIP: add.Result.VIP}
	m.Submit(delVIP)
	for _, r := range runQueued(m) {
		if r.Err != nil {
			t.Errorf("op %d err: %v", r.Op, r.Err)
		}
	}
	bad := &Request{Op: Op(99)}
	m.Submit(bad)
	runQueued(m)
	if bad.Err == nil {
		t.Error("unknown op accepted")
	}
}

func TestMinSwitchCountPaperNumbers(t *testing.T) {
	limits := lbswitch.CatalystCSM()
	// Section III-B: 300K apps × 2 VIPs / 4000 = 150 switches.
	if got := MinSwitchCount(300_000, 2, 0, limits); got != 150 {
		t.Errorf("2-VIP count = %d, want 150", got)
	}
	// Section V-A: max(300K·3/4000, 300K·20/16000) = max(225, 375) = 375.
	if got := MinSwitchCount(300_000, 3, 20, limits); got != 375 {
		t.Errorf("3-VIP/20-RIP count = %d, want 375", got)
	}
	if got := MinSwitchCount(10, 1, 1, lbswitch.Limits{}); got != 0 {
		t.Errorf("zero limits count = %d", got)
	}
}

// Property: however many AddVIP/AddRIP requests are submitted, no switch
// ever exceeds its limits, under every registered placement and
// first-fit.
func TestPropertyManagerRespectsLimits(t *testing.T) {
	names := policy.Names()
	f := func(nVIPs, nRIPs uint8, policyRaw uint8) bool {
		fab := lbswitch.NewFabric()
		for i := 0; i < 3; i++ {
			fab.AddSwitch(lbswitch.Limits{MaxVIPs: 3, MaxRIPs: 6, ThroughputMbps: 100, MaxConns: 10, MaxPPS: 100})
		}
		vp, _ := NewIPPool("198.51.100.0", 256)
		rp, _ := NewIPPool("10.0.0.0", 256)
		m := NewManager(fab, vp, rp)
		if i := int(policyRaw) % (len(names) + 1); i < len(names) {
			m.SetPlacement(policy.MustNew(names[i], 1).Placement)
		} else {
			m.SetPlacement(policy.FirstFit{})
		}
		for i := 0; i < int(nVIPs%24); i++ {
			m.AddVIP(1)
		}
		for i := 0; i < int(nRIPs%40); i++ {
			rip, err := m.AllocRIP()
			if err != nil {
				break
			}
			m.AddRIP(1, rip, 1, 0, -1)
		}
		return fab.CheckInvariants() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(14))}); err != nil {
		t.Error(err)
	}
}

// TestQueueInterleavedExactOrder is the regression test for the strict
// queue contract: across interleaved submissions the completion order is
// priority-descending with FIFO tie-breaking, exactly — not merely "highs
// before lows". (sort.Slice's instability could historically reorder
// equal-priority requests once the queue grew past the small-slice
// threshold; requestOrder's seq tiebreak makes the order total.)
func TestQueueInterleavedExactOrder(t *testing.T) {
	m := newTestManager(t, 8)
	prios := []Priority{
		PriorityNormal, PriorityHigh, PriorityLow, PriorityNormal,
		PriorityHigh, PriorityLow, PriorityNormal, PriorityHigh,
		PriorityLow, PriorityNormal, PriorityHigh, PriorityNormal,
	}
	reqs := make([]*Request, len(prios))
	for i, p := range prios {
		reqs[i] = &Request{Op: OpAddVIP, App: 1, Priority: p}
		m.Submit(reqs[i])
	}
	done := runQueued(m)
	// Expected: all highs in submission order, then normals, then lows.
	var want []*Request
	for _, p := range []Priority{PriorityHigh, PriorityNormal, PriorityLow} {
		for i, r := range reqs {
			if prios[i] == p {
				want = append(want, r)
			}
		}
	}
	if len(done) != len(want) {
		t.Fatalf("len(done) = %d, want %d", len(done), len(want))
	}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completion order wrong at %d: got app-prio %v, want %v",
				i, done[i].Priority, want[i].Priority)
		}
	}
}

// TestQueueTraceTransitions asserts a traced request leaves the
// queue→process→done event sequence in the flight recorder.
func TestQueueTraceTransitions(t *testing.T) {
	m := newTestManager(t, 2)
	rec := trace.NewRecorder(64)
	m.SetTracer(rec)
	r := &Request{Op: OpAddVIP, App: 7, Priority: PriorityHigh}
	m.Submit(r)
	runQueued(m)
	var types []trace.Type
	for _, ev := range rec.Events() {
		if ev.Touches(trace.App(7)) {
			types = append(types, ev.Type)
		}
	}
	// The AddVIP effect event nests inside the process→done bracket.
	want := []trace.Type{trace.EvReqSubmit, trace.EvReqProcess, trace.EvAddVIP, trace.EvReqDone}
	if len(types) != len(want) {
		t.Fatalf("event types = %v, want %v", types, want)
	}
	for i := range want {
		if types[i] != want[i] {
			t.Fatalf("event %d = %v, want %v", i, types[i], want[i])
		}
	}
}

// TestAddRIPRejectsBadWeight is the regression test for the NaN-blind
// weight check: `weight <= 0` is false for NaN, so a NaN weight used to
// sail through into the switch tables.
func TestAddRIPRejectsBadWeight(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, 0} {
		m := newTestManager(t, 1)
		vip, _, _ := m.AddVIP(1)
		rip, _ := m.AllocRIP()
		if _, _, err := m.AddRIP(1, rip, w, vip, -1); !errors.Is(err, ErrBadWeight) {
			t.Errorf("AddRIP weight %v: err = %v, want ErrBadWeight", w, err)
		}
	}
}

// TestAdjustWeightsRejectsBadWeight checks the up-front vector
// validation: a bad weight anywhere in the vector rejects the whole
// call, and — crucially — leaves every existing weight untouched (the
// old per-RIP loop could fail midway, leaving a partially-applied vector
// that silently changed the VIP's total weight).
func TestAdjustWeightsRejectsBadWeight(t *testing.T) {
	for _, bad := range []float64{math.NaN(), math.Inf(1), -2, 0} {
		m := newTestManager(t, 1)
		vip, sw, _ := m.AddVIP(1)
		r1, _ := m.AllocRIP()
		r2, _ := m.AllocRIP()
		m.AddRIP(1, r1, 1, vip, -1)
		m.AddRIP(1, r2, 3, vip, -1)
		// The first element alone is valid and, under a partial
		// application, would have been written before the bad second
		// element was noticed.
		if err := m.AdjustWeights(vip, []float64{4 - bad, bad}); !errors.Is(err, ErrBadWeight) {
			t.Fatalf("AdjustWeights with %v: err = %v, want ErrBadWeight", bad, err)
		}
		_, ws, err := m.Fabric().Switch(sw).Weights(vip)
		if err != nil {
			t.Fatal(err)
		}
		if ws[0] != 1 || ws[1] != 3 {
			t.Errorf("weights after rejected adjust = %v, want [1 3] (partial application!)", ws)
		}
	}
}
