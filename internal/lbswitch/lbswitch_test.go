package lbswitch

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"megadc/internal/ipv4"
)

func smallLimits() Limits {
	return Limits{MaxVIPs: 4, MaxRIPs: 8, ThroughputMbps: 100, MaxConns: 10, MaxPPS: 1000}
}

func TestCatalystCSMParameters(t *testing.T) {
	l := CatalystCSM()
	if l.MaxVIPs != 4000 || l.MaxRIPs != 16000 || l.ThroughputMbps != 4000 ||
		l.MaxConns != 1_000_000 || l.MaxPPS != 1_250_000 {
		t.Errorf("CatalystCSM = %+v does not match the paper's parameters", l)
	}
}

func TestLimitsScaled(t *testing.T) {
	l := CatalystCSM().Scaled(10)
	if l.MaxVIPs != 400 || l.MaxRIPs != 1600 || l.ThroughputMbps != 400 {
		t.Errorf("Scaled(10) = %+v", l)
	}
	defer func() {
		if recover() == nil {
			t.Error("Scaled(0) did not panic")
		}
	}()
	CatalystCSM().Scaled(0)
}

func TestAddVIPAndLimits(t *testing.T) {
	s := NewSwitch(0, smallLimits())
	for i, vip := range []VIP{ipA, ipB, ipC, ipD} {
		if err := s.AddVIP(vip, 1); err != nil {
			t.Fatalf("AddVIP %d: %v", i, err)
		}
	}
	if err := s.AddVIP(ipZ, 1); !errors.Is(err, ErrVIPLimit) {
		t.Errorf("5th AddVIP err = %v, want ErrVIPLimit", err)
	}
	if err := s.AddVIP(ipA, 1); !errors.Is(err, ErrDupVIP) {
		t.Errorf("dup AddVIP err = %v, want ErrDupVIP", err)
	}
	if s.NumVIPs() != 4 {
		t.Errorf("NumVIPs = %d", s.NumVIPs())
	}
	if app, ok := s.AppOf(ipA); !ok || app != 1 {
		t.Errorf("AppOf = %v,%v", app, ok)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRIPLimitsSharedAcrossVIPs(t *testing.T) {
	s := NewSwitch(0, smallLimits())
	s.AddVIP(ipA, 1)
	s.AddVIP(ipB, 2)
	for i := 0; i < 8; i++ {
		vip := ipA
		if i%2 == 1 {
			vip = ipB
		}
		if err := s.AddRIP(vip, ipv4.MustParse("10.0.0.1")+RIP(i), 1); err != nil {
			t.Fatalf("AddRIP %d: %v", i, err)
		}
	}
	if err := s.AddRIP(ipA, ipX, 1); !errors.Is(err, ErrRIPLimit) {
		t.Errorf("9th AddRIP err = %v, want ErrRIPLimit (limit is per switch)", err)
	}
	if s.NumRIPs() != 8 {
		t.Errorf("NumRIPs = %d", s.NumRIPs())
	}
}

func TestAddRIPErrors(t *testing.T) {
	s := NewSwitch(0, smallLimits())
	s.AddVIP(ipA, 1)
	if err := s.AddRIP(ipMissing, ipR, 1); !errors.Is(err, ErrNoSuchVIP) {
		t.Errorf("err = %v", err)
	}
	if err := s.AddRIP(ipA, ipR, 0); !errors.Is(err, ErrBadWeight) {
		t.Errorf("zero weight err = %v", err)
	}
	s.AddRIP(ipA, ipR, 1)
	if err := s.AddRIP(ipA, ipR, 2); !errors.Is(err, ErrDupRIP) {
		t.Errorf("dup err = %v", err)
	}
}

func TestWeightedPickDistribution(t *testing.T) {
	s := NewSwitch(0, Limits{MaxVIPs: 1, MaxRIPs: 4, ThroughputMbps: 1, MaxConns: 1, MaxPPS: 1})
	s.AddVIP(ipV, 1)
	s.AddRIP(ipV, ipR1, 1)
	s.AddRIP(ipV, ipR3, 3)
	rng := rand.New(rand.NewSource(11))
	counts := map[RIP]int{}
	const n = 40000
	for i := 0; i < n; i++ {
		rip, err := s.PickRIP(ipV, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[rip]++
	}
	frac := float64(counts[ipR3]) / n
	if math.Abs(frac-0.75) > 0.02 {
		t.Errorf("r3 fraction = %v, want ≈0.75", frac)
	}
}

func TestPickRIPNoRIPs(t *testing.T) {
	s := NewSwitch(0, smallLimits())
	s.AddVIP(ipV, 1)
	if _, err := s.PickRIP(ipV, rand.New(rand.NewSource(1))); !errors.Is(err, ErrNoRIPs) {
		t.Errorf("err = %v, want ErrNoRIPs", err)
	}
	if _, err := s.PickRIP(ipW, rand.New(rand.NewSource(1))); !errors.Is(err, ErrNoSuchVIP) {
		t.Errorf("err = %v, want ErrNoSuchVIP", err)
	}
}

func TestConnLifecycleAndAffinity(t *testing.T) {
	s := NewSwitch(0, smallLimits())
	s.AddVIP(ipV, 1)
	s.AddRIP(ipV, ipR1, 1)
	s.AddRIP(ipV, ipR2, 1)
	rng := rand.New(rand.NewSource(3))
	var ids []ConnID
	for i := 0; i < 10; i++ {
		id, rip, _, err := s.OpenConn(ipV, rng)
		if err != nil {
			t.Fatalf("OpenConn %d: %v", i, err)
		}
		if rip != ipR1 && rip != ipR2 {
			t.Fatalf("unexpected rip %s", rip)
		}
		ids = append(ids, id)
	}
	if s.NumConns() != 10 || s.VIPConns(ipV) != 10 {
		t.Errorf("conns = %d/%d", s.NumConns(), s.VIPConns(ipV))
	}
	// Limit reached.
	if _, _, _, err := s.OpenConn(ipV, rng); !errors.Is(err, ErrConnLimit) {
		t.Errorf("11th conn err = %v, want ErrConnLimit", err)
	}
	rips, counts := s.RIPConns(ipV)
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != 10 || len(rips) != 2 {
		t.Errorf("RIPConns = %v %v", rips, counts)
	}
	for _, id := range ids {
		if !s.CloseConn(id) {
			t.Errorf("CloseConn(%d) = false", id)
		}
	}
	if s.CloseConn(ids[0]) {
		t.Error("double close returned true")
	}
	if s.NumConns() != 0 || s.VIPConns(ipV) != 0 {
		t.Errorf("conns after close = %d/%d", s.NumConns(), s.VIPConns(ipV))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRemoveVIPBlockedByConns(t *testing.T) {
	s := NewSwitch(0, smallLimits())
	s.AddVIP(ipV, 1)
	s.AddRIP(ipV, ipR, 1)
	rng := rand.New(rand.NewSource(4))
	s.OpenConn(ipV, rng)
	if _, err := s.RemoveVIP(ipV, false); !errors.Is(err, ErrActiveConns) {
		t.Errorf("err = %v, want ErrActiveConns", err)
	}
	broken, err := s.RemoveVIP(ipV, true)
	if err != nil || broken != 1 {
		t.Errorf("forced remove = %d,%v", broken, err)
	}
	if s.NumVIPs() != 0 || s.NumRIPs() != 0 || s.NumConns() != 0 {
		t.Error("state not cleaned after forced remove")
	}
	if _, err := s.RemoveVIP(ipV, false); !errors.Is(err, ErrNoSuchVIP) {
		t.Errorf("remove missing err = %v", err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestRemoveRIPBreaksItsConns(t *testing.T) {
	s := NewSwitch(0, smallLimits())
	s.AddVIP(ipV, 1)
	s.AddRIP(ipV, ipR1, 1)
	s.AddRIP(ipV, ipR2, 1)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 8; i++ {
		s.OpenConn(ipV, rng)
	}
	_, counts := s.RIPConns(ipV)
	broken, err := s.RemoveRIP(ipV, ipR1)
	if err != nil {
		t.Fatal(err)
	}
	if broken != counts[0] {
		t.Errorf("broken = %d, want %d", broken, counts[0])
	}
	if s.VIPConns(ipV) != 8-counts[0] {
		t.Errorf("VIP conns = %d, want %d", s.VIPConns(ipV), 8-counts[0])
	}
	if s.NumRIPs() != 1 {
		t.Errorf("NumRIPs = %d", s.NumRIPs())
	}
	if _, err := s.RemoveRIP(ipV, ipR1); !errors.Is(err, ErrNoSuchRIP) {
		t.Errorf("remove missing rip err = %v", err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestSetWeightAndTotal(t *testing.T) {
	s := NewSwitch(0, smallLimits())
	s.AddVIP(ipV, 1)
	s.AddRIP(ipV, ipR1, 1)
	s.AddRIP(ipV, ipR2, 2)
	if err := s.SetWeight(ipV, ipR1, 5); err != nil {
		t.Fatal(err)
	}
	rips, ws, _ := s.Weights(ipV)
	if len(rips) != 2 || ws[0] != 5 || ws[1] != 2 || ws[0]+ws[1] != 7 {
		t.Errorf("Weights = %v %v", rips, ws)
	}
	if err := s.SetWeight(ipV, ipR1, -1); !errors.Is(err, ErrBadWeight) {
		t.Errorf("negative weight err = %v", err)
	}
	if err := s.SetWeight(ipV, ipMissing, 1); !errors.Is(err, ErrNoSuchRIP) {
		t.Errorf("missing rip err = %v", err)
	}
	if err := s.SetWeight(ipW, ipR1, 1); !errors.Is(err, ErrNoSuchVIP) {
		t.Errorf("missing vip err = %v", err)
	}
}

// TestVIPSeqAndTaggedWeights checks that sorting VIPs by VIPSeq
// reproduces VIPs order across removals and re-adds, that the
// allocation-free accessors (AppendWeightsTagged, GroupAt) agree with
// Weights, and that only a weight change moves WeightGen.
func TestVIPSeqAndTaggedWeights(t *testing.T) {
	s := NewSwitch(0, smallLimits())
	for _, v := range []VIP{ipA, ipB, ipC, ipD} {
		s.AddVIP(v, 1)
	}
	s.RemoveVIP(ipB, false)
	s.AddVIP(ipB, 1)
	s.RemoveVIP(ipA, false)
	order := s.VIPs()
	for i := 1; i < len(order); i++ {
		prev, _ := s.VIPSeq(order[i-1])
		cur, _ := s.VIPSeq(order[i])
		if prev >= cur {
			t.Fatalf("VIPSeq not ascending along VIPs %v at %s", order, order[i])
		}
	}
	if _, ok := s.VIPSeq(ipA); ok {
		t.Error("removed VIP still has a sequence")
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	s.AddRIP(ipC, ipR1, 1)
	s.AddRIPTagged(ipC, ipR2, 3, 7)
	rips, tags, ws, err := s.AppendWeightsTagged(ipC, nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	wantRIPs, wantWs, _ := s.Weights(ipC)
	if !slices.Equal(rips, wantRIPs) || !slices.Equal(ws, wantWs) || !slices.Equal(tags, []int32{-1, 7}) {
		t.Errorf("AppendWeightsTagged = %v %v %v, want %v %v [-1 7]", rips, tags, ws, wantRIPs, wantWs)
	}
	if _, _, _, err := s.AppendWeightsTagged(ipMissing, nil, nil, nil); !errors.Is(err, ErrNoSuchVIP) {
		t.Errorf("missing vip err = %v", err)
	}
	if n := s.NumRIPsOf(ipC); n != 2 {
		t.Errorf("NumRIPsOf(c) = %d, want 2", n)
	}
	if n := s.NumRIPsOf(ipMissing); n != 0 {
		t.Errorf("NumRIPsOf(missing) = %d, want 0", n)
	}
	i := slices.Index(s.VIPs(), ipC)
	g := s.GroupAt(i)
	var gTags []int32
	for j := 0; j < g.Len(); j++ {
		gTags = append(gTags, g.Tag(j))
		if g.Weight(j) != ws[j] {
			t.Errorf("GroupAt(%d).Weight(%d) = %v, want %v", i, j, g.Weight(j), ws[j])
		}
	}
	if g.VIP() != ipC || g.App() != 1 || !slices.Equal(gTags, tags) || !slices.Equal(g.AppendWeights(nil), ws) {
		t.Errorf("GroupAt(%d) = %s app %d tags %v weights %v, want %s app 1 %v %v",
			i, g.VIP(), g.App(), gTags, g.AppendWeights(nil), ipC, tags, ws)
	}
	// Only a weight change moves the weight generation.
	wg, bg := s.WeightGen(), s.BackendGen()
	if err := s.SetWeight(ipC, ipR1, 2); err != nil {
		t.Fatal(err)
	}
	if s.WeightGen() == wg || s.BackendGen() != bg {
		t.Errorf("SetWeight moved (WeightGen, BackendGen) from (%d, %d) to (%d, %d), want only WeightGen", wg, bg, s.WeightGen(), s.BackendGen())
	}
	wg = s.WeightGen()
	s.AddRIP(ipC, ipR3, 1)
	if s.WeightGen() != wg {
		t.Errorf("AddRIP moved WeightGen from %d to %d", wg, s.WeightGen())
	}
}

func TestFluidLoadAndUtilization(t *testing.T) {
	s := NewSwitch(0, smallLimits())
	s.AddVIP(ipA, 1)
	s.AddVIP(ipB, 2)
	s.SetVIPLoad(ipA, 30)
	s.SetVIPLoad(ipB, 50)
	if got := s.ThroughputMbps(); got != 80 {
		t.Errorf("ThroughputMbps = %v", got)
	}
	if got := s.Utilization(); got != 0.8 {
		t.Errorf("Utilization = %v", got)
	}
	if err := s.SetVIPLoad(ipA, -1); err == nil {
		t.Error("negative load accepted")
	}
	if err := s.SetVIPLoad(ipZz, 1); !errors.Is(err, ErrNoSuchVIP) {
		t.Errorf("missing vip err = %v", err)
	}
	if got := s.VIPLoad(ipA); got != 30 {
		t.Errorf("VIPLoad = %v", got)
	}
	if got := s.VIPLoad(ipZz); got != 0 {
		t.Errorf("missing VIPLoad = %v", got)
	}
}

func TestVIPLoadShare(t *testing.T) {
	s := NewSwitch(0, smallLimits())
	s.AddVIP(ipV, 1)
	s.AddRIP(ipV, ipR1, 1)
	s.AddRIP(ipV, ipR3, 3)
	s.SetVIPLoad(ipV, 100)
	rips, mbps, err := s.VIPLoadShare(ipV)
	if err != nil {
		t.Fatal(err)
	}
	if rips[0] != ipR1 || mbps[0] != 25 || mbps[1] != 75 {
		t.Errorf("share = %v %v", rips, mbps)
	}
}

func TestPPSModel(t *testing.T) {
	s := NewSwitch(0, CatalystCSM())
	s.AddVIP(ipV, 1)
	s.SetVIPLoad(ipV, 4000) // full 4 Gbps
	if got := s.PPS(); got != 1_000_000 {
		t.Errorf("PPS at line rate = %v, want 1M", got)
	}
	// 4 Gbps → 1M pps = 80% of the 1.25M limit: throughput binds first,
	// matching the datasheet relationship the paper relies on.
	if got := s.PPSUtilization(); got != 0.8 {
		t.Errorf("PPSUtilization = %v, want 0.8", got)
	}
	if got := s.BottleneckUtilization(); got != 1.0 {
		t.Errorf("BottleneckUtilization = %v, want 1.0 (throughput-bound)", got)
	}
	// With a pps-constrained switch, pps binds.
	tiny := NewSwitch(1, Limits{MaxVIPs: 1, MaxRIPs: 1, ThroughputMbps: 4000, MaxConns: 1, MaxPPS: 100_000})
	tiny.AddVIP(ipV, 1)
	tiny.SetVIPLoad(ipV, 2000)
	if got := tiny.BottleneckUtilization(); got != 5.0 {
		t.Errorf("pps-bound BottleneckUtilization = %v, want 5.0", got)
	}
	if got := (&Switch{}).PPSUtilization(); got != 0 {
		t.Errorf("zero-limit PPSUtilization = %v", got)
	}
}

func TestSortVIPsByLoad(t *testing.T) {
	s := NewSwitch(0, smallLimits())
	s.AddVIP(ipA, 1)
	s.AddVIP(ipB, 1)
	s.AddVIP(ipC, 1)
	s.SetVIPLoad(ipA, 10)
	s.SetVIPLoad(ipB, 30)
	s.SetVIPLoad(ipC, 10)
	got := s.SortVIPsByLoad()
	if got[0] != ipB || got[1] != ipA || got[2] != ipC {
		t.Errorf("SortVIPsByLoad = %v", got)
	}
}

func TestReconfigCounting(t *testing.T) {
	s := NewSwitch(0, smallLimits())
	s.AddVIP(ipV, 1)         // 1
	s.AddRIP(ipV, ipR, 1)    // 2
	s.SetWeight(ipV, ipR, 2) // 3
	s.RemoveRIP(ipV, ipR)    // 4
	s.RemoveVIP(ipV, false)  // 5
	if s.Reconfigs != 5 {
		t.Errorf("Reconfigs = %d, want 5", s.Reconfigs)
	}
}

// Property: under random open/close/add/remove sequences the switch never
// violates its limits or internal consistency.
func TestPropertySwitchInvariants(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := NewSwitch(0, smallLimits())
		vips := []VIP{ipA, ipB, ipC, ipD, ipE} // one more than MaxVIPs
		rips := []RIP{ipR1, ipR2, ipR3}
		var conns []ConnID
		for _, op := range ops {
			vip := vips[rng.Intn(len(vips))]
			rip := rips[rng.Intn(len(rips))]
			switch op % 7 {
			case 0:
				s.AddVIP(vip, 1)
			case 1:
				s.AddRIP(vip, rip, 1+rng.Float64())
			case 2:
				if id, _, _, err := s.OpenConn(vip, rng); err == nil {
					conns = append(conns, id)
				}
			case 3:
				if len(conns) > 0 {
					i := rng.Intn(len(conns))
					s.CloseConn(conns[i])
					conns = append(conns[:i], conns[i+1:]...)
				}
			case 4:
				s.RemoveRIP(vip, rip)
			case 5:
				s.RemoveVIP(vip, rng.Intn(2) == 0)
			case 6:
				s.SetWeight(vip, rip, 0.5+rng.Float64())
			}
			if err := s.CheckInvariants(); err != nil {
				t.Logf("invariant: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80, Rand: rand.New(rand.NewSource(6))}); err != nil {
		t.Error(err)
	}
}

// TestBackendGen: the backend generation moves on every VIP/RIP
// membership change — tagged inserts included, such as the one that
// carries a RIP's tag to a VIP transfer's destination switch — and on
// nothing else: not on weight, load, connection or health changes.
func TestBackendGen(t *testing.T) {
	f := NewFabric()
	s := f.AddSwitch(smallLimits())
	dst := f.AddSwitch(smallLimits())
	moves := func(name string, want bool, op func() error) {
		t.Helper()
		before := s.BackendGen()
		if err := op(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if moved := s.BackendGen() != before; moved != want {
			t.Errorf("%s: generation moved = %v, want %v", name, moved, want)
		}
	}
	moves("AddVIP", true, func() error { return s.AddVIP(ipV, 1) })
	moves("AddRIP", true, func() error { return s.AddRIP(ipV, ipR1, 1) })
	moves("AddRIPTagged", true, func() error { return s.AddRIPTagged(ipV, ipR2, 1, 7) })
	moves("SetWeight", false, func() error { return s.SetWeight(ipV, ipR1, 3) })
	moves("SetVIPLoad", false, func() error { return s.SetVIPLoad(ipV, 40) })
	moves("OpenConn", false, func() error {
		id, _, _, err := s.OpenConn(ipV, rand.New(rand.NewSource(1)))
		s.CloseConn(id)
		return err
	})
	moves("RemoveRIP", true, func() error { _, err := s.RemoveRIP(ipV, ipR2); return err })
	moves("RemoveVIP", true, func() error { _, err := s.RemoveVIP(ipV, false); return err })

	// A transfer bumps both ends; the destination moves once per
	// re-added entry, and the carried tag rides in the RIP's insert.
	if err := f.PlaceVIP(ipT, 3, s.ID); err != nil {
		t.Fatal(err)
	}
	if err := s.AddRIPTagged(ipT, ipR4, 1, 11); err != nil {
		t.Fatal(err)
	}
	srcBefore, dstBefore := s.BackendGen(), dst.BackendGen()
	if err := f.TransferVIP(ipT, dst.ID, false); err != nil {
		t.Fatal(err)
	}
	if s.BackendGen() == srcBefore {
		t.Error("TransferVIP: source generation did not move")
	}
	// AddVIP + the tagged AddRIP.
	if got := dst.BackendGen() - dstBefore; got != 2 {
		t.Errorf("TransferVIP: destination generation moved %d times, want 2 (AddVIP, tagged AddRIP)", got)
	}
	if _, tags, _, _ := dst.AppendWeightsTagged(ipT, nil, nil, nil); !slices.Equal(tags, []int32{11}) {
		t.Errorf("transferred tags = %v, want [11]", tags)
	}
}
