// Quickstart: build a small mega-data-center platform (the paper's
// Figure 1 architecture), onboard one elastic application end to end,
// drive demand through DNS → LB switches → VMs, and let the hierarchical
// managers keep it satisfied.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"megadc/internal/cluster"
	"megadc/internal/core"
)

func main() {
	// 1. Build the platform: 2 ISPs × 2 access links, 4 LB switches,
	//    4 logical pods × 8 servers, and the two-level managers.
	topo := core.SmallTopology()
	cfg := core.DefaultConfig()
	p, err := core.NewPlatform(topo, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("platform: %d pods × %d servers, %d LB switches, %d access links\n",
		topo.Pods, topo.ServersPerPod, p.Fabric.NumSwitches(), len(p.Net.Links()))

	// 2. Onboard an application: the platform allocates its VIPs on
	//    underloaded switches, registers them in DNS, advertises each on
	//    one access link, places 4 VM instances across pods, and
	//    configures their RIPs under the VIPs.
	app, err := p.OnboardApp("shop.example", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
		4, core.Demand{CPU: 3, Mbps: 300})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("onboarded %q: %d VIPs, %d instances\n",
		app.Name, len(p.Fabric.VIPsOfApp(app.ID)), app.NumInstances())
	for _, vip := range p.Fabric.VIPsOfApp(app.ID) {
		home, _ := p.Fabric.HomeOf(vip)
		h, _ := p.Fabric.Handle(vip)
		links := p.Net.ActiveLinks(h)
		fmt.Printf("  VIP %s on switch %d, advertised on link %v\n", vip, home, links)
	}

	// 3. Run the control loops for 10 simulated minutes.
	p.Start()
	p.Eng.RunUntil(600)
	fmt.Printf("\nafter 600 s: satisfaction=%.3f\n", p.AppSatisfaction(app.ID))

	// 4. Demand triples; the pod managers' fast knobs (VM resize, RIP
	//    weights) absorb it within seconds, scale-out follows.
	p.SetAppDemand(app.ID, core.Demand{CPU: 9, Mbps: 900})
	fmt.Printf("demand ×3 at t=600: satisfaction drops to %.3f\n", p.AppSatisfaction(app.ID))
	p.Eng.RunUntil(1800)
	fmt.Printf("after recovery (t=1800): satisfaction=%.3f, instances=%d\n",
		p.AppSatisfaction(app.ID), app.NumInstances())

	if err := p.AuditErr(); err != nil {
		log.Fatal("invariants: ", err)
	}
	fmt.Println("invariants: ok")
}
