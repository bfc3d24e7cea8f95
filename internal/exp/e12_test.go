package exp

import (
	"testing"

	"megadc/internal/lbswitch"
	"megadc/internal/policy"
	"megadc/internal/viprip"
)

// TestE12LeastLoadScore: E12's least-load ablation scores a switch by
// its throughput alone, so the next VIP avoids a loaded switch even
// though every switch has the same VIP count, and otherwise stays on
// the first switch of a tie.
func TestE12LeastLoadScore(t *testing.T) {
	fab := lbswitch.NewFabric()
	for i := 0; i < 2; i++ {
		fab.AddSwitch(lbswitch.Limits{MaxVIPs: 4, MaxRIPs: 8, ThroughputMbps: 100, MaxConns: 100, MaxPPS: 1000})
	}
	vp, err := viprip.NewIPPool("198.51.100.0", 64)
	if err != nil {
		t.Fatal(err)
	}
	m := viprip.NewManager(fab, vp, nil)
	m.SetPlacement(scoredPlacement{policy.NewGreedy(nil), fab, (*lbswitch.Switch).Utilization})
	v0, sw0, err := m.AddVIP(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, sw, err := m.AddVIP(1); err != nil || sw != sw0 {
		t.Fatalf("second VIP on switch %d (err %v); least-load ignores VIP count, want switch %d", sw, err, sw0)
	}
	fab.Switch(sw0).SetVIPLoad(v0, 90)
	_, sw2, err := m.AddVIP(1)
	if err != nil {
		t.Fatal(err)
	}
	if sw2 == sw0 {
		t.Error("least-load placed the VIP on the loaded switch")
	}
}
