package netmodel

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"megadc/internal/ipv4"
)

// loadModel is a from-scratch reference for the access network: the
// advertisements and traffic of every VIP, kept in plain maps.
type loadModel struct {
	ads     map[VIPAddr]map[LinkID]bool // vip → link → padded
	traffic map[VIPAddr]float64
}

// share returns the share vip puts on link, 0 when it carries none.
func (m *loadModel) share(vip VIPAddr, link LinkID) float64 {
	t := m.traffic[vip]
	padded, ok := m.ads[vip][link]
	if t == 0 || !ok || padded {
		return 0
	}
	active := 0
	for _, p := range m.ads[vip] {
		if !p {
			active++
		}
	}
	return t / float64(active)
}

// load sums the nonzero shares on link in sorted VIP order: the
// canonical sum LoadMbps must reproduce bit for bit.
func (m *loadModel) load(vips []VIPAddr, link LinkID) (sum float64, carried []VIPAddr) {
	for _, vip := range vips {
		if s := m.share(vip, link); s != 0 {
			sum += s
			carried = append(carried, vip)
		}
	}
	return sum, carried
}

// peekLoad sums the link's shares without compacting it, so a check
// after every operation leaves zero-share keys in place for the next one.
func peekLoad(l *Link) float64 {
	var sum float64
	for _, h := range l.shareKeys {
		sum += l.net.vips[h].shareOn(l.ID)
	}
	return sum
}

// TestLoadSumBitIdentical drives random advertise, withdraw, padding and
// traffic operations, including traffic dropped to zero and raised again
// and routes withdrawn and re-advertised. After every operation each
// link's load must equal, bit for bit, the sorted sum of the nonzero
// shares of a map model. Loads are read without compaction after most
// operations, so cleared keys linger and get revived as they do between
// Propagate's undo and apply; every few operations LoadMbps itself is
// read, after which shareKeys must hold exactly the VIPs with a nonzero
// share, and CheckInvariants must pass.
func TestLoadSumBitIdentical(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		t.Run(fmt.Sprint("seed", seed), func(t *testing.T) { checkLoadSums(t, seed) })
	}
}

func checkLoadSums(t *testing.T, seed int64) {
	rng := rand.New(rand.NewSource(seed))
	n := newTestNet()
	ar := n.AddAccessRouter("isp")
	br := n.AddBorderRouter()
	var links []LinkID
	for i := 0; i < 5; i++ {
		l, err := n.AddLink(ar.ID, br.ID, 1000, 1)
		if err != nil {
			t.Fatal(err)
		}
		links = append(links, l.ID)
	}
	vips := make([]VIPAddr, 12)
	for i := range vips {
		vips[i] = ipv4.MustParse(fmt.Sprintf("10.0.%d.%d", i%3, i))
	}
	// Hand out handles in reverse address order, so handle order and
	// the canonical address order disagree everywhere.
	slices.SortFunc(vips, VIPAddr.Compare)
	for i := len(vips) - 1; i >= 0; i-- {
		n.h(vips[i])
	}
	m := &loadModel{ads: make(map[VIPAddr]map[LinkID]bool), traffic: make(map[VIPAddr]float64)}
	// Magnitudes far apart make the float sum depend on its order.
	traffic := func() float64 {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return rng.Float64() * 1e-3
		case 2:
			return rng.Float64() * 1e12
		}
		return rng.Float64() * 500
	}
	for op := 0; op < 3000; op++ {
		vip := vips[rng.Intn(len(vips))]
		link := links[rng.Intn(len(links))]
		var desc string
		switch rng.Intn(6) {
		case 0, 1:
			padded := rng.Intn(4) == 0
			desc = fmt.Sprintf("Advertise(%s, %d, %v)", vip, link, padded)
			err := n.Advertise(vip, link, padded)
			_, dup := m.ads[vip][link]
			if (err != nil) != dup {
				t.Fatalf("op %d %s: err %v, model dup %v", op, desc, err, dup)
			}
			if !dup {
				if m.ads[vip] == nil {
					m.ads[vip] = make(map[LinkID]bool)
				}
				m.ads[vip][link] = padded
			}
		case 2:
			desc = fmt.Sprintf("Withdraw(%s, %d)", vip, link)
			err := n.Withdraw(vip, link)
			if _, ok := m.ads[vip][link]; (err == nil) != ok {
				t.Fatalf("op %d %s: err %v, model has route %v", op, desc, err, ok)
			}
			delete(m.ads[vip], link)
		case 3:
			padded := rng.Intn(2) == 0
			desc = fmt.Sprintf("SetPadded(%s, %d, %v)", vip, link, padded)
			err := n.SetPadded(vip, link, padded)
			if _, ok := m.ads[vip][link]; (err == nil) != ok {
				t.Fatalf("op %d %s: err %v, model has route %v", op, desc, err, ok)
			}
			if _, ok := m.ads[vip][link]; ok {
				m.ads[vip][link] = padded
			}
		default:
			mbps := traffic()
			desc = fmt.Sprintf("SetVIPTraffic(%s, %v)", vip, mbps)
			if err := n.SetVIPTraffic(vip, mbps); err != nil {
				t.Fatal(err)
			}
			m.traffic[vip] = mbps
		}
		compact := rng.Intn(4) == 0
		for _, id := range links {
			l := n.Link(id)
			want, carried := m.load(vips, id)
			got := peekLoad(l)
			if compact {
				got = l.LoadMbps()
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("op %d %s: link %d load %v (%#x), reference %v (%#x)",
					op, desc, id, got, math.Float64bits(got), want, math.Float64bits(want))
			}
			if !compact {
				continue
			}
			if keys := n.keys(l); !slices.Equal(keys, carried) {
				t.Fatalf("op %d %s: link %d keys %v after LoadMbps, want the nonzero shares %v",
					op, desc, id, keys, carried)
			}
		}
		if compact {
			if err := n.CheckInvariants(); err != nil {
				t.Fatalf("op %d %s: %v", op, desc, err)
			}
		}
	}
}

// TestVIPRecordLifetime pins when a VIP's record holds state: while it
// has an advertisement or nonzero traffic, and no longer. Records are
// slots of a table indexed by handle, so "dropped" means left empty.
func TestVIPRecordLifetime(t *testing.T) {
	n, links := buildNet(t)
	empty := func(vip VIPAddr) bool {
		st := n.vips[n.h(vip)]
		return len(st.ads) == 0 && st.traffic == 0 && st.share == 0 && len(st.applied) == 0
	}
	n.SetVIPTraffic(ipV, 0)
	if len(n.vips) != 0 {
		t.Fatal("zero traffic on an unknown VIP grew the record table")
	}
	n.SetVIPTraffic(ipV, 100) // traffic before any route
	n.Advertise(ipV, links[0].ID, false)
	n.Withdraw(ipV, links[0].ID)
	if empty(ipV) || n.VIPTraffic(ipV) != 100 {
		t.Fatal("record with traffic but no route was dropped")
	}
	n.SetVIPTraffic(ipV, math.Copysign(0, -1))
	if !empty(ipV) {
		t.Fatal("record with no route and no traffic kept state")
	}
	if bits := math.Float64bits(n.VIPTraffic(ipV)); bits != 0 {
		t.Fatalf("VIPTraffic after -0 = %#x, want +0", bits)
	}
	n.Advertise(ipV, links[1].ID, true)
	n.Withdraw(ipV, links[1].ID)
	if !empty(ipV) {
		t.Fatal("withdrawing the last route of an idle VIP kept state")
	}
	if n.Link(-1) != nil || n.Link(LinkID(len(links))) != nil {
		t.Fatal("Link resolved an ID out of range")
	}
}
