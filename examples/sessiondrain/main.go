// Sessiondrain: drives the platform with discrete client sessions (DNS
// caches, TCP affinity to one VM) and shows the knob-B drain protocol
// end to end. A popular application's two VIPs are co-located on one LB
// switch, which saturates under its session load; the global manager
// stops exposing one VIP, waits out the DNS TTL for its sessions to
// pause, and transfers it to an underloaded switch — counting the
// straggler sessions that TTL-violating clients keep sending and that a
// forced transfer breaks.
//
//	go run ./examples/sessiondrain
package main

import (
	"fmt"
	"log"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/sessions"
	"megadc/internal/workload"
)

func main() {
	cfg := core.DefaultConfig()
	cfg.VIPsPerApp = 2
	p, err := core.NewPlatform(core.SmallTopology(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	slice := cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}
	hot, err := p.OnboardApp("chat.example", slice, 4, core.Demand{})
	if err != nil {
		log.Fatal(err)
	}
	var bg []*cluster.Application
	for i := 0; i < 3; i++ {
		a, err := p.OnboardApp(fmt.Sprintf("bg-%d", i), slice, 2, core.Demand{})
		if err != nil {
			log.Fatal(err)
		}
		bg = append(bg, a)
	}
	// Adversarial start: both of the hot app's VIPs on switch 0.
	for _, vip := range p.Fabric.VIPsOfApp(hot.ID) {
		if home, _ := p.Fabric.HomeOf(vip); home != 0 {
			if err := p.Fabric.TransferVIP(vip, 0, false); err != nil {
				log.Fatal(err)
			}
		}
	}

	scfg := sessions.DefaultConfig()
	scfg.ViolatorFraction = 0.15
	scfg.Template = workload.SessionTemplate{MeanDuration: 60, Mbps: 0.25, CPU: 0.005}
	drv, err := sessions.NewDriver(p, scfg)
	if err != nil {
		log.Fatal(err)
	}
	drv.StopAt = 3000
	// Hot app: ~40 arrivals/s × 0.25 Mbps × 60 s ≈ 600 Mbps on switch 0
	// (capacity 400) — saturated until knob B moves one VIP away.
	if err := drv.AddApp(hot.ID, workload.Constant(40)); err != nil {
		log.Fatal(err)
	}
	for _, a := range bg {
		if err := drv.AddApp(a.ID, workload.Constant(4)); err != nil {
			log.Fatal(err)
		}
	}
	p.Start()

	fmt.Println("t(s)   active  started  completed  broken  vip-transfers  forced-breaks  sw0-util  max-other")
	p.Eng.Every(300, 300, func() bool {
		st := drv.TotalStats()
		utils := p.Fabric.Utilizations()
		var maxOther float64
		for i, u := range utils {
			if i != 0 && u > maxOther {
				maxOther = u
			}
		}
		fmt.Printf("%5.0f  %6d  %7d  %9d  %6d  %13d  %13d  %8.2f  %9.2f\n",
			p.Eng.Now(), st.Active, st.Started, st.Completed, st.Broken,
			p.Global.VIPTransfers, p.Global.DrainForceBreaks, utils[0], maxOther)
		return p.Eng.Now() < 3300
	})
	p.Eng.RunUntil(3300)

	st := drv.TotalStats()
	fmt.Printf("\nsessions: %d started, %d completed, %d broken; VIP transfers: %d (%d sessions force-broken)\n",
		st.Started, st.Completed, st.Broken, p.Global.VIPTransfers, p.Global.DrainForceBreaks)
	if p.Fabric.Switch(0).Utilization() < 1.0 {
		fmt.Println("switch 0 relieved by the drain-and-transfer protocol")
	}
	if err := p.AuditErr(); err != nil {
		log.Fatal("invariants: ", err)
	}
	fmt.Println("invariants: ok")
}
