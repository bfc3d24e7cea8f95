// Failover: exercises the reliability story behind the paper's fully
// interconnected access fabric — a server dies (its VMs and RIPs with
// it), an LB switch dies (its VIPs re-home onto healthy switches without
// any route re-advertisement), and an access link dies (its VIPs must be
// re-advertised — the one failure where route updates are unavoidable).
// The control loops then restore full satisfaction.
//
//	go run ./examples/failover
package main

import (
	"fmt"
	"log"

	"megadc/internal/cluster"
	"megadc/internal/core"
)

func main() {
	topo := core.SmallTopology()
	cfg := core.DefaultConfig()
	p, err := core.NewPlatform(topo, cfg)
	if err != nil {
		log.Fatal(err)
	}
	slice := cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}
	for i := 0; i < 6; i++ {
		if _, err := p.OnboardApp(fmt.Sprintf("app-%d", i), slice, 4,
			core.Demand{CPU: 4, Mbps: 100}); err != nil {
			log.Fatal(err)
		}
	}
	p.Start()
	p.Eng.RunUntil(100)
	fmt.Printf("t=100   steady state: satisfaction=%.3f\n", p.TotalSatisfaction())

	p.Eng.At(200, func() {
		victim := p.Cluster.ServerIDs()[0]
		lost, err := p.FailServer(victim)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t=200   SERVER %d FAILED: %d VMs lost, satisfaction=%.3f\n",
			victim, lost, p.TotalSatisfaction())
	})
	p.Eng.At(800, func() {
		fmt.Printf("t=800   after recovery loops: satisfaction=%.3f\n", p.TotalSatisfaction())
		updates := p.Net.RouteUpdates
		rehomed, dropped, err := p.FailSwitch(0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t=800   SWITCH 0 FAILED: %d VIPs re-homed, %d dropped, route updates issued: %d\n",
			rehomed, dropped, p.Net.RouteUpdates-updates)
	})
	p.Eng.At(1400, func() {
		fmt.Printf("t=1400  satisfaction=%.3f\n", p.TotalSatisfaction())
		updates := p.Net.RouteUpdates
		readv, err := p.FailLink(0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("t=1400  LINK 0 FAILED: %d VIPs re-advertised (%d route updates — unavoidable here)\n",
			readv, p.Net.RouteUpdates-updates)
	})
	p.Eng.RunUntil(2800)
	fmt.Printf("t=2800  final: satisfaction=%.3f, deployments=%d, transfers=%d\n",
		p.TotalSatisfaction(), p.Global.Deployments, p.Global.ServerTransfers)
	if err := p.AuditErr(); err != nil {
		log.Fatal("invariants: ", err)
	}
	fmt.Println("invariants: ok")
}
