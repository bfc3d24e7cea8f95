package lbswitch

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"megadc/internal/cluster"
	"megadc/internal/ids"
)

func newTestFabric(nSwitches int) *Fabric {
	f := NewFabric()
	for i := 0; i < nSwitches; i++ {
		f.AddSwitch(smallLimits())
	}
	return f
}

func TestFabricPlaceAndHome(t *testing.T) {
	f := newTestFabric(2)
	if err := f.PlaceVIP("v", 1, 0); err != nil {
		t.Fatal(err)
	}
	if home, ok := f.HomeOf("v"); !ok || home != 0 {
		t.Errorf("HomeOf = %v,%v", home, ok)
	}
	if err := f.PlaceVIP("v", 1, 1); !errors.Is(err, ErrVIPExists) {
		t.Errorf("dup place err = %v", err)
	}
	if err := f.PlaceVIP("w", 1, 99); err == nil {
		t.Error("place on missing switch accepted")
	}
	if got := f.VIPsOfApp(1); len(got) != 1 || got[0] != "v" {
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
	f.PlaceVIP("v", 7, 0)
	f.Switch(0).AddRIP("v", "r1", 2)
	f.Switch(0).AddRIP("v", "r2", 3)
	f.Switch(0).SetVIPLoad("v", 42)
	if err := f.TransferVIP("v", 1, false); err != nil {
		t.Fatalf("TransferVIP: %v", err)
	}
	if home, _ := f.HomeOf("v"); home != 1 {
		t.Errorf("home = %d, want 1", home)
	}
	if f.Switch(0).HasVIP("v") {
		t.Error("source still has VIP")
	}
	dst := f.Switch(1)
	if !dst.HasVIP("v") {
		t.Fatal("dest lacks VIP")
	}
	if app, _ := dst.AppOf("v"); app != 7 {
		t.Errorf("app = %d", app)
	}
	rips, ws, _ := dst.Weights("v")
	if len(rips) != 2 || ws[0] != 2 || ws[1] != 3 {
		t.Errorf("weights after transfer = %v %v", rips, ws)
	}
	if dst.VIPLoad("v") != 42 {
		t.Errorf("load after transfer = %v", dst.VIPLoad("v"))
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
	f.PlaceVIP("v", 1, 0)
	f.Switch(0).AddRIP("v", "r", 1)
	rng := rand.New(rand.NewSource(1))
	f.Switch(0).OpenConn("v", rng)
	if err := f.TransferVIP("v", 1, false); !errors.Is(err, ErrActiveConns) {
		t.Errorf("err = %v, want ErrActiveConns", err)
	}
	// Forced transfer breaks the session and counts it.
	if err := f.TransferVIP("v", 1, true); err != nil {
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
		if err := f.PlaceVIP(VIP(rune('a'+i)), 1, 1); err != nil {
			t.Fatal(err)
		}
	}
	f.PlaceVIP("v", 1, 0)
	if err := f.TransferVIP("v", 1, false); !errors.Is(err, ErrVIPLimit) {
		t.Errorf("err = %v, want ErrVIPLimit", err)
	}
	// VIP must still be intact on the source.
	if !f.Switch(0).HasVIP("v") {
		t.Error("failed transfer lost the VIP")
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFabricTransferDestinationRIPFull(t *testing.T) {
	f := newTestFabric(2)
	f.PlaceVIP("big", 1, 1)
	for i := 0; i < 8; i++ {
		if err := f.Switch(1).AddRIP("big", RIP(rune('0'+i)), 1); err != nil {
			t.Fatal(err)
		}
	}
	f.PlaceVIP("v", 1, 0)
	f.Switch(0).AddRIP("v", "r", 1)
	if err := f.TransferVIP("v", 1, false); !errors.Is(err, ErrRIPLimit) {
		t.Errorf("err = %v, want ErrRIPLimit", err)
	}
	if err := f.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestFabricTransferSelfNoop(t *testing.T) {
	f := newTestFabric(1)
	f.PlaceVIP("v", 1, 0)
	if err := f.TransferVIP("v", 0, false); err != nil {
		t.Errorf("self transfer: %v", err)
	}
	if f.Transfers != 0 {
		t.Errorf("self transfer counted: %d", f.Transfers)
	}
	if err := f.TransferVIP("missing", 0, false); !errors.Is(err, ErrVIPUnknown) {
		t.Errorf("missing vip err = %v", err)
	}
}

func TestFabricDropVIP(t *testing.T) {
	f := newTestFabric(1)
	f.PlaceVIP("v", 1, 0)
	if err := f.DropVIP("v", false); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.HomeOf("v"); ok {
		t.Error("dropped VIP still homed")
	}
	if err := f.DropVIP("v", false); !errors.Is(err, ErrVIPUnknown) {
		t.Errorf("double drop err = %v", err)
	}
}

func TestFabricAggregates(t *testing.T) {
	f := newTestFabric(3)
	f.PlaceVIP("a", 1, 0)
	f.PlaceVIP("b", 1, 1)
	f.Switch(0).SetVIPLoad("a", 50)
	f.Switch(1).SetVIPLoad("b", 100)
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
		vips := []VIP{"a", "b", "c", "d", "e", "f"}
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
	if _, ok := f.Handle("v"); ok {
		t.Fatal("unplaced VIP has a handle")
	}
	f.PlaceVIP("w", 1, 1)
	f.PlaceVIP("v", 1, 0)
	h, ok := f.Handle("v")
	if !ok || h != 1 || f.Addr(h) != "v" {
		t.Fatalf("Handle(v) = %d,%v, Addr = %q", h, ok, f.Addr(h))
	}
	f.Switch(0).AddRIP("v", "r1", 1)
	f.Switch(0).AddRIP("v", "r2", 3)
	if err := f.SetLoad(h, 40); err != nil {
		t.Fatal(err)
	}
	if home, ok := f.Home(h); !ok || home != 0 || f.Load(h) != 40 || f.Switch(0).VIPLoad("v") != 40 {
		t.Errorf("Home/Load = %d,%v,%v", home, ok, f.Load(h))
	}
	rips, tags, mbps, err := f.AppendLoadShareTagged(h, 8, nil, nil, nil)
	if err != nil || !slices.Equal(rips, []RIP{"r1", "r2"}) || !slices.Equal(mbps, []float64{2, 6}) || !slices.Equal(tags, []int64{-1, -1}) {
		t.Errorf("AppendLoadShareTagged = %v %v %v %v", rips, tags, mbps, err)
	}
	if err := f.TransferVIP("v", 1, false); err != nil {
		t.Fatal(err)
	}
	if home, _ := f.Home(h); home != 1 || f.Load(h) != 40 {
		t.Errorf("after transfer: home %d load %v", home, f.Load(h))
	}
	if err := f.DropVIP("v", false); err != nil {
		t.Fatal(err)
	}
	if _, ok := f.Home(h); ok || f.Load(h) != 0 {
		t.Error("dropped VIP still homed by handle")
	}
	if err := f.SetLoad(h, 1); !errors.Is(err, ErrVIPUnknown) {
		t.Errorf("SetLoad on a dropped VIP: %v", err)
	}
	if _, _, _, err := f.AppendLoadShareTagged(h, 1, nil, nil, nil); !errors.Is(err, ErrVIPUnknown) {
		t.Errorf("AppendLoadShareTagged on a dropped VIP: %v", err)
	}
	if err := f.PlaceVIP("v", 2, 0); err != nil {
		t.Fatal(err)
	}
	if again, _ := f.Handle("v"); again != h {
		t.Errorf("re-placed VIP got handle %d, want %d", again, h)
	}
	if err := f.PlaceVIP("x", -1, 0); err == nil {
		t.Error("negative app accepted")
	}
	if err := f.Switch(1).AddVIP("v", 2); !errors.Is(err, ErrDupVIP) {
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
	f.PlaceVIP("v", 3, 0)
	for i, w := range []float64{1, 2.5, 4} {
		rip := RIP(fmt.Sprintf("r%d", i))
		src.AddRIP("v", rip, w)
		if i != 1 { // the middle RIP stays untagged
			src.SetRIPTag("v", rip, int64(10+i))
		}
	}
	rng := rand.New(rand.NewSource(3))
	const open = 5
	for i := 0; i < open; i++ {
		if _, _, _, err := src.OpenConn("v", rng); err != nil {
			t.Fatal(err)
		}
	}
	rips, tags, ws, _ := src.AppendWeightsTagged("v", nil, nil, nil)
	reconfigs, calls := dst.Reconfigs, 0
	dst.OnReconfig = func(ids.Index, cluster.AppID) { calls++ }
	if err := f.TransferVIP("v", 1, true); err != nil {
		t.Fatal(err)
	}
	gotRIPs, gotTags, gotWs, err := dst.AppendWeightsTagged("v", nil, nil, nil)
	if err != nil || !slices.Equal(gotRIPs, rips) || !slices.Equal(gotTags, tags) || !slices.Equal(gotWs, ws) {
		t.Errorf("destination group = %v %v %v (%v), want %v %v %v", gotRIPs, gotTags, gotWs, err, rips, tags, ws)
	}
	if _, counts := dst.RIPConns("v"); slices.ContainsFunc(counts, func(n int) bool { return n != 0 }) || dst.VIPConns("v") != 0 {
		t.Errorf("destination RIPConns = %v, VIPConns = %d; want all zero", counts, dst.VIPConns("v"))
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
