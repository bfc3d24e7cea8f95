package lbswitch_test

import (
	"fmt"
	"math/rand"

	"megadc/internal/ipv4"
	"megadc/internal/lbswitch"
)

// Configure a VIP with a weighted RIP group and take load-balancing
// decisions — the paper's basic switch operation.
func Example() {
	vip := ipv4.MustParse("203.0.113.10")
	rip1, rip2 := ipv4.MustParse("10.0.0.1"), ipv4.MustParse("10.0.0.2")
	sw := lbswitch.NewSwitch(0, lbswitch.CatalystCSM())
	sw.AddVIP(vip, 1)
	sw.AddRIP(vip, rip1, 1)
	sw.AddRIP(vip, rip2, 3) // 3× the weight

	rng := rand.New(rand.NewSource(42))
	counts := map[lbswitch.RIP]int{}
	for i := 0; i < 1000; i++ {
		rip, _ := sw.PickRIP(vip, rng)
		counts[rip]++
	}
	fmt.Printf("weighted split ≈ 1:3 → %v vs %v picks\n", counts[rip1] > 150, counts[rip2] > 600)
	fmt.Printf("limits: %d VIPs, %d RIPs, %.0f Gbps\n",
		sw.Limits.MaxVIPs, sw.Limits.MaxRIPs, sw.Limits.ThroughputMbps/1000)
	// Output:
	// weighted split ≈ 1:3 → true vs true picks
	// limits: 4000 VIPs, 16000 RIPs, 4 Gbps
}

// Dynamic VIP transfer between switches (the paper's knob B): quiescent
// VIPs move with their whole RIP group; loaded ones refuse.
func ExampleFabric_TransferVIP() {
	vip := ipv4.MustParse("203.0.113.10")
	fab := lbswitch.NewFabric()
	fab.AddSwitch(lbswitch.CatalystCSM())
	fab.AddSwitch(lbswitch.CatalystCSM())
	fab.PlaceVIP(vip, 1, 0)
	fab.Switch(0).AddRIP(vip, ipv4.MustParse("10.0.0.1"), 1)

	rng := rand.New(rand.NewSource(1))
	id, _, _, _ := fab.Switch(0).OpenConn(vip, rng)
	err := fab.TransferVIP(vip, 1, false)
	fmt.Println("transfer with active session:", err != nil)

	fab.Switch(0).CloseConn(id)
	err = fab.TransferVIP(vip, 1, false)
	home, _ := fab.HomeOf(vip)
	fmt.Printf("after drain: err=%v, home=switch %d\n", err, home)
	// Output:
	// transfer with active session: true
	// after drain: err=<nil>, home=switch 1
}
