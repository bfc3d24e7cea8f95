package twolayer

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"megadc/internal/ipv4"
	"megadc/internal/lbswitch"
)

func testLimits() lbswitch.Limits {
	return lbswitch.Limits{MaxVIPs: 10, MaxRIPs: 40, ThroughputMbps: 1000, MaxConns: 100, MaxPPS: 1000}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(0, 2, testLimits()); err == nil {
		t.Error("zero DD switches accepted")
	}
	if _, err := New(2, 0, testLimits()); err == nil {
		t.Error("zero LB switches accepted")
	}
}

func TestOnboardAppStructure(t *testing.T) {
	a, err := New(2, 2, testLimits())
	if err != nil {
		t.Fatal(err)
	}
	ext, mvips, err := a.OnboardApp(1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ext) != 3 || len(mvips) != 2 {
		t.Fatalf("ext/mvips = %d/%d", len(ext), len(mvips))
	}
	// Every external VIP maps to the full m-VIP set (paper: all
	// external VIPs of an app map to the same m-VIPs).
	for _, e := range ext {
		home, _ := a.DD.HomeOf(e)
		rips, _, err := a.DD.Switch(home).Weights(e)
		if err != nil || len(rips) != 2 {
			t.Errorf("external VIP %s maps to %d m-VIPs", e, len(rips))
		}
	}
	if got := a.MVIPs(1); len(got) != 2 {
		t.Errorf("MVIPs = %v", got)
	}
	if got := a.ExternalVIPs(1); len(got) != 3 {
		t.Errorf("ExternalVIPs = %v", got)
	}
	if _, _, err := a.OnboardApp(1, 1, 1); err == nil {
		t.Error("double onboard accepted")
	}
	if _, _, err := a.OnboardApp(2, 0, 1); err == nil {
		t.Error("zero external VIPs accepted")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestLoadPropagationThroughLayers(t *testing.T) {
	a, err := New(1, 2, testLimits())
	if err != nil {
		t.Fatal(err)
	}
	ext, mvips, err := a.OnboardApp(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	// 300 on ext0, 100 on ext1 → each m-VIP gets half of each = 200.
	if err := a.SetExternalLoad(ext[0], 300); err != nil {
		t.Fatal(err)
	}
	if err := a.SetExternalLoad(ext[1], 100); err != nil {
		t.Fatal(err)
	}
	for _, m := range mvips {
		home, _ := a.LB.HomeOf(m)
		if got := a.LB.Switch(home).VIPLoad(m); math.Abs(got-200) > 1e-9 {
			t.Errorf("m-VIP %s load = %v, want 200", m, got)
		}
	}
	if err := a.SetExternalLoad(ipv4.MustParse("203.0.113.9"), 5); err == nil {
		t.Error("unknown external VIP accepted")
	}
}

func TestSetMVIPWeightsShiftsPodSplitOnly(t *testing.T) {
	a, err := New(1, 2, testLimits())
	if err != nil {
		t.Fatal(err)
	}
	ext, mvips, err := a.OnboardApp(1, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	a.SetExternalLoad(ext[0], 300)
	a.SetExternalLoad(ext[1], 100)
	ddLoadBefore := a.DD.TotalThroughputMbps()
	// Shift everything to m-VIP 0 (weights 3:1).
	if err := a.SetMVIPWeights(1, []float64{3, 1}); err != nil {
		t.Fatal(err)
	}
	home0, _ := a.LB.HomeOf(mvips[0])
	home1, _ := a.LB.HomeOf(mvips[1])
	l0 := a.LB.Switch(home0).VIPLoad(mvips[0])
	l1 := a.LB.Switch(home1).VIPLoad(mvips[1])
	if math.Abs(l0-300) > 1e-9 || math.Abs(l1-100) > 1e-9 {
		t.Errorf("m-VIP loads = %v/%v, want 300/100", l0, l1)
	}
	// The DD layer (access side) is untouched: same external loads.
	if got := a.DD.TotalThroughputMbps(); math.Abs(got-ddLoadBefore) > 1e-9 {
		t.Errorf("DD load changed by pod rebalancing: %v vs %v", got, ddLoadBefore)
	}
	if err := a.SetMVIPWeights(1, []float64{1}); err == nil {
		t.Error("wrong arity accepted")
	}
	if err := a.SetMVIPWeights(9, []float64{1}); err == nil {
		t.Error("unknown app accepted")
	}
}

func TestAddRIPSpreadsAcrossMVIPs(t *testing.T) {
	a, err := New(1, 2, testLimits())
	if err != nil {
		t.Fatal(err)
	}
	_, mvips, err := a.OnboardApp(1, 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	homes := map[lbswitch.VIP]int{}
	for i := 0; i < 6; i++ {
		m, err := a.AddRIP(1, lbswitch.RIP(rune('0'+i)), 1)
		if err != nil {
			t.Fatal(err)
		}
		homes[m]++
	}
	if homes[mvips[0]] != 3 || homes[mvips[1]] != 3 {
		t.Errorf("RIP spread = %v, want 3/3", homes)
	}
	if _, err := a.AddRIP(9, ipv4.MustParse("10.0.0.1"), 1); err == nil {
		t.Error("unknown app accepted")
	}
	if err := a.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestExtraSwitches(t *testing.T) {
	a, _ := New(3, 5, testLimits())
	if got := a.ExtraSwitches(); got != 3 {
		t.Errorf("ExtraSwitches = %d", got)
	}
}

func TestConflictSymmetricNoGap(t *testing.T) {
	sc := ConflictScenario{TrafficMbps: 1000, LinkCap: [2]float64{1000, 1000}, PodCap: [2]float64{1000, 1000}}
	gap, err := ConflictGap(sc)
	if err != nil {
		t.Fatal(err)
	}
	if gap > 1e-6 {
		t.Errorf("symmetric scenario has gap %v, want 0", gap)
	}
}

func TestConflictAsymmetricPodsGap(t *testing.T) {
	// Links symmetric; pod 0 has a quarter of pod 1's capacity. Link
	// balance wants a 50/50 split; pod balance wants 20/80. One layer
	// must compromise; two layers satisfy both.
	sc := ConflictScenario{TrafficMbps: 1000, LinkCap: [2]float64{600, 600}, PodCap: [2]float64{250, 1000}}
	one, err := SolveOneLayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	two, err := SolveTwoLayer(sc)
	if err != nil {
		t.Fatal(err)
	}
	if one.Objective <= two.Objective {
		t.Errorf("one-layer %v ≤ two-layer %v; expected a conflict gap", one.Objective, two.Objective)
	}
	// Two-layer achieves the independent optima: links 500/600, pods
	// 200/250 = 0.8.
	if math.Abs(two.MaxLinkUtil-500.0/600) > 1e-6 {
		t.Errorf("two-layer link util = %v", two.MaxLinkUtil)
	}
	if math.Abs(two.MaxPodUtil-0.8) > 1e-6 {
		t.Errorf("two-layer pod util = %v", two.MaxPodUtil)
	}
	// One-layer: optimum is where link and pod objectives cross; the
	// split is strictly between the two ideal splits.
	if one.Split <= 0.2-1e-6 || one.Split >= 0.5+1e-6 {
		t.Errorf("one-layer split = %v, want within (0.2, 0.5)", one.Split)
	}
}

func TestConflictValidation(t *testing.T) {
	bad := ConflictScenario{TrafficMbps: 0, LinkCap: [2]float64{1, 1}, PodCap: [2]float64{1, 1}}
	if _, err := SolveOneLayer(bad); err == nil {
		t.Error("zero traffic accepted")
	}
	bad = ConflictScenario{TrafficMbps: 1, LinkCap: [2]float64{0, 1}, PodCap: [2]float64{1, 1}}
	if _, err := SolveTwoLayer(bad); err == nil {
		t.Error("zero capacity accepted")
	}
	if _, err := ConflictGap(bad); err == nil {
		t.Error("ConflictGap accepted bad scenario")
	}
}

// Property: the two-layer objective never exceeds the one-layer
// objective (decoupling can only help), and both are optimal for their
// constraint sets.
func TestPropertyTwoLayerNeverWorse(t *testing.T) {
	f := func(l0, l1, p0, p1, tr uint16) bool {
		sc := ConflictScenario{
			TrafficMbps: float64(tr%2000) + 1,
			LinkCap:     [2]float64{float64(l0%1000) + 1, float64(l1%1000) + 1},
			PodCap:      [2]float64{float64(p0%1000) + 1, float64(p1%1000) + 1},
		}
		one, err1 := SolveOneLayer(sc)
		two, err2 := SolveTwoLayer(sc)
		if err1 != nil || err2 != nil {
			return false
		}
		return two.Objective <= one.Objective+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(15))}); err != nil {
		t.Error(err)
	}
}
