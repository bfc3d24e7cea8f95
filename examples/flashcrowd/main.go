// Flashcrowd: the paper's motivating scenario — an Internet application
// whose demand is "hard to predict in advance" spikes 15× while sharing
// the data center with a stable application mix. The example prints a
// timeline of how the control knobs react: VM resizes and RIP-weight
// changes within seconds, local scale-out and global deployments within
// minutes, server transfers when a pod runs hot.
//
//	go run ./examples/flashcrowd
package main

import (
	"fmt"
	"log"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/workload"
)

func main() {
	topo := core.SmallTopology()
	topo.Pods = 4
	topo.ServersPerPod = 8
	cfg := core.DefaultConfig()
	p, err := core.NewPlatform(topo, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// A Zipf mix of 12 background applications at ~40% load.
	slice := cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}
	weights := workload.ZipfWeights(12, 0.8)
	var victim cluster.AppID
	for i := 0; i < 12; i++ {
		a, err := p.OnboardApp(fmt.Sprintf("bg-%02d", i), slice, 3,
			core.Demand{CPU: 100 * weights[i], Mbps: 600 * weights[i]})
		if err != nil {
			log.Fatal(err)
		}
		if i == 0 {
			victim = a.ID
		}
	}

	// The most popular app gets a flash crowd: 15× for 20 minutes.
	base := p.AppDemand(victim)
	p.DriveDemand(victim, workload.FlashCrowd{
		Base: 1, Peak: 15, Start: 900, Ramp: 120, Hold: 1200,
	}, base, 15, 4000)

	p.Start()
	fmt.Println("t(s)   rate  satisfaction  instances  resizes  deploys  transfers  podUtilMax")
	p.Eng.Every(300, 300, func() bool {
		var resizes, deploys int64
		var podMax float64
		for _, pm := range p.PodManagers() {
			resizes += pm.Resizes
			deploys += pm.LocalDeploys
			if u := pm.Utilization(); u > podMax {
				podMax = u
			}
		}
		deploys += p.Global.Deployments
		rate := p.AppDemand(victim).CPU / base.CPU
		fmt.Printf("%5.0f  %4.1fx  %12.3f  %9d  %7d  %7d  %9d  %10.2f\n",
			p.Eng.Now(), rate, p.TotalSatisfaction(),
			p.Cluster.App(victim).NumInstances(), resizes, deploys,
			p.Global.ServerTransfers, podMax)
		return p.Eng.Now() < 4200
	})
	p.Eng.RunUntil(4200)

	if err := p.AuditErr(); err != nil {
		log.Fatal("invariants: ", err)
	}
	fmt.Println("\nflash crowd absorbed; invariants ok")
}
