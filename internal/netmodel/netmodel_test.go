package netmodel

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"megadc/internal/ipv4"
)

// buildNet makes 2 ISPs × 1 AR each, 2 border routers, 4 links
// (each AR to each border router), 1000 Mbps each.
func buildNet(t *testing.T) (*testNet, []*Link) {
	t.Helper()
	n := newTestNet()
	ar1 := n.AddAccessRouter("isp-a")
	ar2 := n.AddAccessRouter("isp-b")
	b1 := n.AddBorderRouter()
	b2 := n.AddBorderRouter()
	var links []*Link
	for _, pair := range [][2]any{{ar1, b1}, {ar1, b2}, {ar2, b1}, {ar2, b2}} {
		l, err := n.AddLink(pair[0].(*AccessRouter).ID, pair[1].(*BorderRouter).ID, 1000, 1)
		if err != nil {
			t.Fatal(err)
		}
		links = append(links, l)
	}
	return n, links
}

func TestAddLinkValidation(t *testing.T) {
	n := newTestNet()
	ar := n.AddAccessRouter("isp")
	br := n.AddBorderRouter()
	if _, err := n.AddLink(99, br.ID, 100, 0); err == nil {
		t.Error("bad AR accepted")
	}
	if _, err := n.AddLink(ar.ID, 99, 100, 0); err == nil {
		t.Error("bad BR accepted")
	}
	if _, err := n.AddLink(ar.ID, br.ID, 0, 0); err == nil {
		t.Error("zero capacity accepted")
	}
	l, err := n.AddLink(ar.ID, br.ID, 100, 2)
	if err != nil {
		t.Fatal(err)
	}
	if n.Link(l.ID) != l || n.NumRouters() != 1 || n.NumBorders() != 1 {
		t.Error("registry wrong")
	}
	if n.Router(ar.ID).ISP != "isp" {
		t.Error("router lookup wrong")
	}
}

func TestAdvertiseWithdraw(t *testing.T) {
	n, links := buildNet(t)
	if err := n.Advertise(ipv4.MustParse("10.0.0.1"), links[0].ID, false); err != nil {
		t.Fatal(err)
	}
	if err := n.Advertise(ipv4.MustParse("10.0.0.1"), links[0].ID, false); !errors.Is(err, ErrDupAd) {
		t.Errorf("dup err = %v", err)
	}
	if err := n.Advertise(ipv4.MustParse("10.0.0.1"), 99, false); !errors.Is(err, ErrUnknownLink) {
		t.Errorf("unknown link err = %v", err)
	}
	if got := n.ActiveLinks(ipv4.MustParse("10.0.0.1")); len(got) != 1 || got[0] != links[0].ID {
		t.Errorf("ActiveLinks = %v", got)
	}
	if err := n.Withdraw(ipv4.MustParse("10.0.0.1"), links[0].ID); err != nil {
		t.Fatal(err)
	}
	if err := n.Withdraw(ipv4.MustParse("10.0.0.1"), links[0].ID); !errors.Is(err, ErrNoRoute) {
		t.Errorf("withdraw missing err = %v", err)
	}
	if n.RouteUpdates != 2 {
		t.Errorf("RouteUpdates = %d, want 2", n.RouteUpdates)
	}
}

func TestPaddedAdvertisementCarriesNoTraffic(t *testing.T) {
	n, links := buildNet(t)
	n.Advertise(ipV1, links[0].ID, false)
	n.Advertise(ipV1, links[1].ID, true) // padded backup
	n.SetVIPTraffic(ipV1, 600)
	if got := links[0].LoadMbps(); got != 600 {
		t.Errorf("active link load = %v, want 600", got)
	}
	if got := links[1].LoadMbps(); got != 0 {
		t.Errorf("padded link load = %v, want 0", got)
	}
	if got := n.AllLinks(ipV1); len(got) != 2 {
		t.Errorf("AllLinks = %v", got)
	}
	// Unpadding shifts half the traffic.
	if err := n.SetPadded(ipV1, links[1].ID, false); err != nil {
		t.Fatal(err)
	}
	if got := links[0].LoadMbps(); got != 300 {
		t.Errorf("after unpad, link0 = %v, want 300", got)
	}
	// SetPadded to same value is a no-op (no route update).
	ru := n.RouteUpdates
	n.SetPadded(ipV1, links[1].ID, false)
	if n.RouteUpdates != ru {
		t.Error("no-op SetPadded counted a route update")
	}
	if err := n.SetPadded(ipV2, links[0].ID, true); !errors.Is(err, ErrNoRoute) {
		t.Errorf("SetPadded missing err = %v", err)
	}
	if err := n.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestTrafficSplitAcrossLinks(t *testing.T) {
	n, links := buildNet(t)
	n.Advertise(ipV, links[0].ID, false)
	n.Advertise(ipV, links[2].ID, false)
	n.SetVIPTraffic(ipV, 800)
	if links[0].LoadMbps() != 400 || links[2].LoadMbps() != 400 {
		t.Errorf("loads = %v", n.LinkLoads())
	}
	if got := links[0].Utilization(); got != 0.4 {
		t.Errorf("utilization = %v", got)
	}
	n.SetVIPTraffic(ipV, 0)
	for _, l := range n.Links() {
		if l.LoadMbps() != 0 {
			t.Errorf("link %d load = %v after zeroing", l.ID, l.LoadMbps())
		}
	}
	if err := n.SetVIPTraffic(ipV, -1); err == nil {
		t.Error("negative traffic accepted")
	}
}

func TestOverloadedLinks(t *testing.T) {
	n, links := buildNet(t)
	n.Advertise(ipA, links[0].ID, false)
	n.Advertise(ipB, links[1].ID, false)
	n.SetVIPTraffic(ipA, 1200) // 120%
	n.SetVIPTraffic(ipB, 500)  // 50%
	over := n.OverloadedLinks(1.0)
	if len(over) != 1 || over[0] != links[0].ID {
		t.Errorf("OverloadedLinks = %v", over)
	}
	if got := n.OverloadedLinks(0.4); len(got) != 2 || got[0] != links[0].ID {
		t.Errorf("OverloadedLinks(0.4) = %v", got)
	}
}

func TestTotalCostAndVIPsOnLink(t *testing.T) {
	n := newTestNet()
	ar := n.AddAccessRouter("isp")
	br := n.AddBorderRouter()
	cheap, _ := n.AddLink(ar.ID, br.ID, 1000, 1)
	dear, _ := n.AddLink(ar.ID, br.ID, 1000, 3)
	n.Advertise(ipA, cheap.ID, false)
	n.Advertise(ipB, dear.ID, false)
	n.SetVIPTraffic(ipA, 100)
	n.SetVIPTraffic(ipB, 100)
	if got := n.TotalCost(); got != 400 {
		t.Errorf("TotalCost = %v, want 400", got)
	}
	if got := n.VIPsOnLink(cheap.ID); len(got) != 1 || got[0] != ipA {
		t.Errorf("VIPsOnLink = %v", got)
	}
	if got := n.VIPTraffic(ipA); got != 100 {
		t.Errorf("VIPTraffic = %v", got)
	}
}

func TestHoseFabricAdmissibility(t *testing.T) {
	h := NewHoseFabric(1000)
	h.Offer(Flow{Src: 1, Dst: 2, Mbps: 600})
	h.Offer(Flow{Src: 3, Dst: 2, Mbps: 300})
	if ok, bad := h.Admissible(); !ok {
		t.Errorf("should be admissible, bad=%v", bad)
	}
	h.Offer(Flow{Src: 4, Dst: 2, Mbps: 200}) // host 2 ingress = 1100
	ok, bad := h.Admissible()
	if ok || len(bad) != 1 || bad[0] != 2 {
		t.Errorf("Admissible = %v, %v; want false, [2]", ok, bad)
	}
	in, out := h.HostLoad(2)
	if in != 1100 || out != 0 {
		t.Errorf("HostLoad(2) = %v,%v", in, out)
	}
	if got := h.MaxUtilization(); math.Abs(got-1.1) > 1e-9 {
		t.Errorf("MaxUtilization = %v", got)
	}
	h.Release(Flow{Src: 4, Dst: 2, Mbps: 200})
	if ok, _ := h.Admissible(); !ok {
		t.Error("should be admissible after release")
	}
	h.Reset()
	if got := h.MaxUtilization(); got != 0 {
		t.Errorf("after Reset, MaxUtilization = %v", got)
	}
	if err := h.Offer(Flow{Src: 1, Dst: 2, Mbps: -5}); err == nil {
		t.Error("negative flow accepted")
	}
}

func TestHoseFabricBadGuaranteePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("NewHoseFabric(0) did not panic")
		}
	}()
	NewHoseFabric(0)
}

func TestTrafficSplit(t *testing.T) {
	s := TrafficSplit{ExternalMbps: 20, InternalMbps: 80}
	if got := s.ExternalFraction(); got != 0.2 {
		t.Errorf("ExternalFraction = %v, want 0.2", got)
	}
	if got := (TrafficSplit{}).ExternalFraction(); got != 0 {
		t.Errorf("empty ExternalFraction = %v", got)
	}
}

// Property: total link load always equals the sum of traffic of VIPs
// that have at least one active link (conservation), and invariants hold
// under random advertise/withdraw/pad/traffic operations.
func TestPropertyTrafficConservation(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := newTestNet()
		ar := n.AddAccessRouter("isp")
		br := n.AddBorderRouter()
		var linkIDs []LinkID
		for i := 0; i < 4; i++ {
			l, err := n.AddLink(ar.ID, br.ID, 1000, 1)
			if err != nil {
				return false
			}
			linkIDs = append(linkIDs, l.ID)
		}
		vips := []VIPAddr{ipV1, ipV2, ipV3}
		for _, op := range ops {
			vip := vips[rng.Intn(len(vips))]
			link := linkIDs[rng.Intn(len(linkIDs))]
			switch op % 4 {
			case 0:
				n.Advertise(vip, link, rng.Intn(3) == 0)
			case 1:
				n.Withdraw(vip, link)
			case 2:
				n.SetPadded(vip, link, rng.Intn(2) == 0)
			case 3:
				n.SetVIPTraffic(vip, float64(rng.Intn(500)))
			}
			if err := n.CheckInvariants(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
			var carried, total float64
			for _, v := range vips {
				if len(n.ActiveLinks(v)) > 0 {
					carried += n.VIPTraffic(v)
				}
			}
			for _, ld := range n.LinkLoads() {
				total += ld
			}
			if math.Abs(carried-total) > 1e-6*(1+carried) {
				t.Logf("conservation: carried %v != link total %v", carried, total)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(8))}); err != nil {
		t.Error(err)
	}
}

// TestReserveVIPTable: a table reserved for n handles takes n
// advertisements in handle order without regrowing, and its capacity
// stays within 1.25× of its length (the bulk build's bound,
// TestBulkLedgerCapacity).
func TestReserveVIPTable(t *testing.T) {
	const n = 1000
	net, links := buildNet(t)
	if net.NumLinks() != len(links) {
		t.Fatalf("NumLinks = %d, want %d", net.NumLinks(), len(links))
	}
	net.Reserve(n)
	var first *vipState
	for i := 0; i < n; i++ {
		if err := net.Advertise(ipv4.MustParse("10.0.0.0")+VIPAddr(i), links[i%len(links)].ID, false); err != nil {
			t.Fatal(err)
		}
		if i == 0 {
			first = &net.vips[0]
		}
	}
	if &net.vips[0] != first {
		t.Error("the reserved table regrew")
	}
	if l, c := len(net.vips), cap(net.vips); l != n || 4*c > 5*l {
		t.Errorf("table holds %d VIPs in capacity %d, want %d within 1.25×", l, c, n)
	}
}
