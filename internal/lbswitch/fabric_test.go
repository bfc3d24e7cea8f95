package lbswitch

import (
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"megadc/internal/cluster"
	"megadc/internal/ids"
	"megadc/internal/ipv4"
)

func newTestFabric(nSwitches int) *Fabric {
	f := NewFabric()
	for i := 0; i < nSwitches; i++ {
		f.AddSwitch(smallLimits())
	}
	return f
}

// TestAddressOrderIsLexical: the address-ordered outputs list VIPs in
// the lexical order of their dotted quads, in which 10.0.0.10 precedes
// 10.0.0.9 although it is numerically larger.
func TestAddressOrderIsLexical(t *testing.T) {
	f := newTestFabric(1)
	nine, ten := ipv4.MustParse("10.0.0.9"), ipv4.MustParse("10.0.0.10")
	for _, vip := range []VIP{nine, ten} {
		if err := f.PlaceVIP(vip, 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	want := []VIP{ten, nine}
	if got := f.VIPsOfApp(1); !slices.Equal(got, want) {
		t.Errorf("VIPsOfApp = %v, want %v", got, want)
	}
	if got := f.Switch(0).SortVIPsByLoad(); !slices.Equal(got, want) { // equal loads: address order
		t.Errorf("SortVIPsByLoad = %v, want %v", got, want)
	}
}

func TestFabricPlaceAndHome(t *testing.T) {
	f := newTestFabric(2)
	if err := f.PlaceVIP(ipV, 1, 0); err != nil {
		t.Fatal(err)
	}
	if home, ok := f.HomeOf(ipV); !ok || home != 0 {
		t.Errorf("HomeOf = %v,%v", home, ok)
	}
	if err := f.PlaceVIP(ipV, 1, 1); !errors.Is(err, ErrVIPExists) {
		t.Errorf("dup place err = %v", err)
	}
	if err := f.PlaceVIP(ipW, 1, 99); err == nil {
		t.Error("place on missing switch accepted")
	}
	if got := f.VIPsOfApp(1); len(got) != 1 || got[0] != ipV {
		t.Errorf("VIPsOfApp = %v", got)
	}
	if f.NumSwitches() != 2 || len(f.Switches()) != 2 {
		t.Error("switch accounting wrong")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFabricTransferQuiescent(t *testing.T) {
	f := newTestFabric(2)
	f.PlaceVIP(ipV, 7, 0)
	f.Switch(0).AddRIP(ipV, ipR1, 2)
	f.Switch(0).AddRIP(ipV, ipR2, 3)
	f.Switch(0).SetVIPLoad(ipV, 42)
	if err := f.TransferVIP(ipV, 1, false); err != nil {
		t.Fatalf("TransferVIP: %v", err)
	}
	if home, _ := f.HomeOf(ipV); home != 1 {
		t.Errorf("home = %d, want 1", home)
	}
	if f.Switch(0).HasVIP(ipV) {
		t.Error("source still has VIP")
	}
	dst := f.Switch(1)
	if !dst.HasVIP(ipV) {
		t.Fatal("dest lacks VIP")
	}
	if app, _ := dst.AppOf(ipV); app != 7 {
		t.Errorf("app = %d", app)
	}
	rips, ws, _ := dst.Weights(ipV)
	if len(rips) != 2 || ws[0] != 2 || ws[1] != 3 {
		t.Errorf("weights after transfer = %v %v", rips, ws)
	}
	if dst.VIPLoad(ipV) != 42 {
		t.Errorf("load after transfer = %v", dst.VIPLoad(ipV))
	}
	if f.Transfers != 1 {
		t.Errorf("Transfers = %d", f.Transfers)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFabricTransferBlockedByActiveConns(t *testing.T) {
	f := newTestFabric(2)
	f.PlaceVIP(ipV, 1, 0)
	f.Switch(0).AddRIP(ipV, ipR, 1)
	rng := rand.New(rand.NewSource(1))
	f.Switch(0).OpenConn(ipV, rng)
	if err := f.TransferVIP(ipV, 1, false); !errors.Is(err, ErrActiveConns) {
		t.Errorf("err = %v, want ErrActiveConns", err)
	}
	// Forced transfer breaks the session and counts it.
	if err := f.TransferVIP(ipV, 1, true); err != nil {
		t.Fatalf("forced transfer: %v", err)
	}
	if f.BrokenConns != 1 {
		t.Errorf("BrokenConns = %d, want 1", f.BrokenConns)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFabricTransferDestinationFull(t *testing.T) {
	f := newTestFabric(2)
	// Fill switch 1's VIP table.
	for i := 0; i < 4; i++ {
		if err := f.PlaceVIP(ipv4.MustParse("203.0.113.1")+VIP(i), 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	f.PlaceVIP(ipV, 1, 0)
	if err := f.TransferVIP(ipV, 1, false); !errors.Is(err, ErrVIPLimit) {
		t.Errorf("err = %v, want ErrVIPLimit", err)
	}
	// VIP must still be intact on the source.
	if !f.Switch(0).HasVIP(ipV) {
		t.Error("failed transfer lost the VIP")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFabricTransferDestinationRIPFull(t *testing.T) {
	f := newTestFabric(2)
	f.PlaceVIP(ipBig, 1, 1)
	for i := 0; i < 8; i++ {
		if err := f.Switch(1).AddRIP(ipBig, ipv4.MustParse("10.0.0.1")+RIP(i), 1); err != nil {
			t.Fatal(err)
		}
	}
	f.PlaceVIP(ipV, 1, 0)
	f.Switch(0).AddRIP(ipV, ipR, 1)
	if err := f.TransferVIP(ipV, 1, false); !errors.Is(err, ErrRIPLimit) {
		t.Errorf("err = %v, want ErrRIPLimit", err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFabricTransferSelfNoop(t *testing.T) {
	f := newTestFabric(1)
	f.PlaceVIP(ipV, 1, 0)
	if err := f.TransferVIP(ipV, 0, false); err != nil {
		t.Errorf("self transfer: %v", err)
	}
	if f.Transfers != 0 {
		t.Errorf("self transfer counted: %d", f.Transfers)
	}
	if err := f.TransferVIP(ipMissing, 0, false); !errors.Is(err, ErrVIPUnknown) {
		t.Errorf("missing vip err = %v", err)
	}
}

func TestFabricDropVIP(t *testing.T) {
	f := newTestFabric(1)
	f.PlaceVIP(ipV, 1, 0)
	if err := f.DropVIP(ipV, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.HomeOf(ipV); ok {
		t.Error("dropped VIP still homed")
	}
	if err := f.DropVIP(ipV, false); !errors.Is(err, ErrVIPUnknown) {
		t.Errorf("double drop err = %v", err)
	}
}

func TestFabricAggregates(t *testing.T) {
	f := newTestFabric(3)
	f.PlaceVIP(ipA, 1, 0)
	f.PlaceVIP(ipB, 1, 1)
	f.Switch(0).SetVIPLoad(ipA, 50)
	f.Switch(1).SetVIPLoad(ipB, 100)
	if got := f.TotalThroughputMbps(); got != 150 {
		t.Errorf("TotalThroughputMbps = %v", got)
	}
	if got := f.AggregateCapacityMbps(); got != 300 {
		t.Errorf("AggregateCapacityMbps = %v", got)
	}
	utils := f.Utilizations()
	if len(utils) != 3 || utils[0] != 0.5 || utils[1] != 1.0 || utils[2] != 0 {
		t.Errorf("Utilizations = %v", utils)
	}
}

// Property: random placements and transfers never violate fabric
// invariants, and each VIP is homed on exactly the switch that has it.
func TestPropertyFabricTransfers(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		fab := newTestFabric(3)
		vips := []VIP{ipA, ipB, ipC, ipD, ipE, ipF}
		for _, op := range ops {
			vip := vips[rng.Intn(len(vips))]
			sw := SwitchID(rng.Intn(3))
			switch op % 3 {
			case 0:
				fab.PlaceVIP(vip, 1, sw)
			case 1:
				fab.TransferVIP(vip, sw, rng.Intn(2) == 0)
			case 2:
				fab.DropVIP(vip, rng.Intn(2) == 0)
			}
			if err := fab.CheckInvariants(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(7))}); err != nil {
		t.Error(err)
	}
}

// TestFabricHandles: the fabric assigns a VIP's handle at its first
// placement and keeps it across transfers, drops and re-placement; the
// handle-taking methods reach the same entry as the address-taking ones.
func TestFabricHandles(t *testing.T) {
	f := newTestFabric(2)
	if _, ok := f.Handle(ipV); ok {
		t.Fatal("unplaced VIP has a handle")
	}
	f.PlaceVIP(ipW, 1, 1)
	f.PlaceVIP(ipV, 1, 0)
	h, ok := f.Handle(ipV)
	if !ok || h != 1 || f.Addr(h) != ipV {
		t.Fatalf("Handle(v) = %d,%v, Addr = %q", h, ok, f.Addr(h))
	}
	f.Switch(0).AddRIP(ipV, ipR1, 1)
	f.Switch(0).AddRIP(ipV, ipR2, 3)
	if err := f.SetLoad(h, 40); err != nil {
		t.Fatal(err)
	}
	if home, ok := f.Home(h); !ok || home != 0 || f.Load(h) != 40 || f.Switch(0).VIPLoad(ipV) != 40 {
		t.Errorf("Home/Load = %d,%v,%v", home, ok, f.Load(h))
	}
	g, ok := f.GroupOf(h)
	if !ok || g.VIP() != ipV || g.App() != 1 || g.Len() != 2 {
		t.Fatalf("GroupOf = %v, VIP %q, app %d, len %d", ok, g.VIP(), g.App(), g.Len())
	}
	if ws := g.AppendWeights(nil); !slices.Equal(ws, []float64{1, 3}) || g.Tag(0) != -1 || g.Tag(1) != -1 {
		t.Errorf("GroupOf weights %v, tags %d %d", ws, g.Tag(0), g.Tag(1))
	}
	if err := f.TransferVIP(ipV, 1, false); err != nil {
		t.Fatal(err)
	}
	if home, _ := f.Home(h); home != 1 || f.Load(h) != 40 {
		t.Errorf("after transfer: home %d load %v", home, f.Load(h))
	}
	if g, ok := f.GroupOf(h); !ok || g.Len() != 2 || g.Weight(1) != 3 {
		t.Errorf("after transfer: GroupOf = %v, len %d", ok, g.Len())
	}
	if err := f.DropVIP(ipV, false); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Home(h); ok || f.Load(h) != 0 {
		t.Error("dropped VIP still homed by handle")
	}
	if err := f.SetLoad(h, 1); !errors.Is(err, ErrVIPUnknown) {
		t.Errorf("SetLoad on a dropped VIP: %v", err)
	}
	if _, ok := f.GroupOf(h); ok {
		t.Error("GroupOf found a dropped VIP")
	}
	if _, ok := f.GroupOf(h + 100); ok {
		t.Error("GroupOf found a handle never assigned")
	}
	if err := f.PlaceVIP(ipV, 2, 0); err != nil {
		t.Fatal(err)
	}
	if again, _ := f.Handle(ipV); again != h {
		t.Errorf("re-placed VIP got handle %d, want %d", again, h)
	}
	if err := f.PlaceVIP(ipX, -1, 0); err == nil {
		t.Error("negative app accepted")
	}
	if err := f.Switch(1).AddVIP(ipV, 2); !errors.Is(err, ErrDupVIP) {
		t.Errorf("VIP configured on a second switch of the fabric: %v", err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestFabricTransferCarriesGroup: a forced transfer rebuilds the RIP
// group on the destination in order, with its tags and weights, breaks
// every open connection, and counts one reconfiguration for the VIP and
// one per RIP.
func TestFabricTransferCarriesGroup(t *testing.T) {
	f := newTestFabric(2)
	src, dst := f.Switch(0), f.Switch(1)
	f.PlaceVIP(ipV, 3, 0)
	for i, w := range []float64{1, 2.5, 4} {
		rip := ipv4.MustParse("10.1.0.1") + RIP(i)
		tag := int32(10 + i)
		if i == 1 { // the middle RIP stays untagged
			tag = -1
		}
		src.AddRIPTagged(ipV, rip, w, tag)
	}
	rng := rand.New(rand.NewSource(3))
	const open = 5
	for i := 0; i < open; i++ {
		if _, _, _, err := src.OpenConn(ipV, rng); err != nil {
			t.Fatal(err)
		}
	}
	rips, tags, ws, _ := src.AppendWeightsTagged(ipV, nil, nil, nil)
	reconfigs, calls := dst.Reconfigs, 0
	dst.OnReconfig = func(ids.Index, cluster.AppID) { calls++ }
	if err := f.TransferVIP(ipV, 1, true); err != nil {
		t.Fatal(err)
	}
	gotRIPs, gotTags, gotWs, err := dst.AppendWeightsTagged(ipV, nil, nil, nil)
	if err != nil || !slices.Equal(gotRIPs, rips) || !slices.Equal(gotTags, tags) || !slices.Equal(gotWs, ws) {
		t.Errorf("destination group = %v %v %v (%v), want %v %v %v", gotRIPs, gotTags, gotWs, err, rips, tags, ws)
	}
	if _, counts := dst.RIPConns(ipV); slices.ContainsFunc(counts, func(n int) bool { return n != 0 }) || dst.VIPConns(ipV) != 0 {
		t.Errorf("destination RIPConns = %v, VIPConns = %d; want all zero", counts, dst.VIPConns(ipV))
	}
	if f.BrokenConns != open {
		t.Errorf("BrokenConns = %d, want %d", f.BrokenConns, open)
	}
	if want := int64(1 + len(rips)); dst.Reconfigs-reconfigs != want || calls != int(want) {
		t.Errorf("destination Reconfigs +%d, OnReconfig calls %d; want %d each", dst.Reconfigs-reconfigs, calls, want)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// checkHomeColumn compares the table's home column with its entries:
// each handle's home is its entry's switch, or noSwitch when the entry
// is nil, and Fabric.Home (when f is given) answers the same.
func checkHomeColumn(t *testing.T, step string, tab *vipTable, f *Fabric) {
	t.Helper()
	for h, sl := range tab.slot {
		want, wantOK := noSwitch, sl.e != nil
		if sl.e != nil {
			want = sl.e.sw.ID
		}
		if sl.home != want {
			t.Fatalf("%s: handle %d (%s) home %d, entry on %d", step, h, tab.addrs[h], sl.home, want)
		}
		if f == nil {
			continue
		}
		if got, ok := f.Home(ids.Index(h)); ok != wantOK || (ok && got != want) {
			t.Fatalf("%s: Home(%d) = %d,%v, want %d,%v", step, h, got, ok, want, wantOK)
		}
	}
	if f == nil {
		return
	}
	if err := f.CheckInvariants(); err != nil {
		t.Fatalf("%s: %v", step, err)
	}
}

// TestHomeTableTracksEntries: the home column Fabric.Home reads follows
// every write of the entry column — placement, quiescent, blocked and
// forced transfers, drops, re-placing a dropped address (which reuses
// its handle) — and a lone switch keeps its own table's column too.
func TestHomeTableTracksEntries(t *testing.T) {
	f := newTestFabric(3)
	step := func(name string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		checkHomeColumn(t, name, f.tab, f)
	}
	step("place v", f.PlaceVIP(ipV, 1, 0))
	h, _ := f.Handle(ipV)
	step("place w", f.PlaceVIP(ipW, 2, 1))
	step("add RIP", f.Switch(0).AddRIP(ipV, ipR, 1))
	step("transfer", f.TransferVIP(ipV, 2, false))
	if _, _, _, err := f.Switch(2).OpenConn(ipV, rand.New(rand.NewSource(1))); err != nil {
		t.Fatal(err)
	}
	if err := f.TransferVIP(ipV, 0, false); !errors.Is(err, ErrActiveConns) {
		t.Fatalf("blocked transfer: err = %v, want ErrActiveConns", err)
	}
	step("blocked transfer", nil)
	if home, _ := f.Home(h); home != 2 {
		t.Fatalf("blocked transfer moved the home to %d", home)
	}
	step("forced transfer", f.TransferVIP(ipV, 0, true))
	step("drop", f.DropVIP(ipV, false))
	if _, ok := f.Home(h); ok {
		t.Fatal("dropped VIP still has a home")
	}
	step("place again", f.PlaceVIP(ipV, 1, 1))
	if again, _ := f.Handle(ipV); again != h {
		t.Fatalf("re-placed VIP got handle %d, want %d", again, h)
	}
	if home, ok := f.Home(h); !ok || home != 1 {
		t.Fatalf("Home after re-place = %d,%v, want 1,true", home, ok)
	}
	if _, ok := f.Home(ids.Index(len(f.tab.slot))); ok {
		t.Fatal("a never-assigned handle has a home")
	}

	s := NewSwitch(7, smallLimits())
	lone := func(name string, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("lone %s: %v", name, err)
		}
		checkHomeColumn(t, "lone "+name, s.tab, nil)
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("lone %s: %v", name, err)
		}
	}
	lone("add", s.AddVIP(ipV, 1))
	lone("add w", s.AddVIP(ipW, 1))
	_, err := s.RemoveVIP(ipV, false)
	lone("remove", err)
	lone("add again", s.AddVIP(ipV, 1))
}
