package viprip_test

import (
	"fmt"

	"megadc/internal/lbswitch"
	"megadc/internal/sim"
	"megadc/internal/viprip"
)

// The serialized VIP/RIP manager: requests are queued with priorities
// and processed in order, each VIP landing on an underloaded switch.
func Example() {
	fab := lbswitch.NewFabric()
	for i := 0; i < 2; i++ {
		fab.AddSwitch(lbswitch.CatalystCSM())
	}
	vips, _ := viprip.NewIPPool("100.64.0.0", 1024)
	rips, _ := viprip.NewIPPool("10.0.0.0", 1024)
	mgr := viprip.NewManager(fab, vips, rips)

	var done []*viprip.Request
	record := func(r *viprip.Request) { done = append(done, r) }
	mgr.Submit(&viprip.Request{Op: viprip.OpAddVIP, App: 1, Priority: viprip.PriorityLow, OnDone: record})
	mgr.Submit(&viprip.Request{Op: viprip.OpAddVIP, App: 2, Priority: viprip.PriorityHigh, OnDone: record})
	eng := sim.New(1)
	mgr.StartSerialized(eng, 1)
	eng.Run()
	fmt.Println("processed first:", done[0].App, "(high priority)")

	rip, _ := mgr.AllocRIP()
	vip, sw, _ := mgr.AddRIP(2, rip, 1, 0, -1) // no preferred VIP: the manager picks
	fmt.Printf("RIP %s configured under app 2's VIP %s on switch %d\n", rip, vip, sw)
	// Output:
	// processed first: 2 (high priority)
	// RIP 10.0.0.0 configured under app 2's VIP 100.64.0.0 on switch 0
}

// The paper's Section V-A switch-count arithmetic.
func ExampleMinSwitchCount() {
	limits := lbswitch.CatalystCSM()
	fmt.Println(viprip.MinSwitchCount(300_000, 2, 0, limits))
	fmt.Println(viprip.MinSwitchCount(300_000, 3, 20, limits))
	// Output:
	// 150
	// 375
}
