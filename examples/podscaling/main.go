// Podscaling: demonstrates the pod-level hierarchy — an overloaded pod
// relieved by server transfer (knob C) and dynamic deployment (knob D),
// and the elephant-pod guard keeping pod sizes within the pod managers'
// comfort zone. It also runs the placement controller on a pod's real
// state to show the bounded decision time that motivates pods.
//
//	go run ./examples/podscaling
package main

import (
	"fmt"
	"log"

	"megadc/internal/cluster"
	"megadc/internal/core"
)

func main() {
	topo := core.SmallTopology()
	topo.Pods = 3
	topo.ServersPerPod = 4
	cfg := core.DefaultConfig()
	cfg.MaxPodServers = 6 // tight elephant limit so the guard is visible
	p, err := core.NewPlatform(topo, cfg)
	if err != nil {
		log.Fatal(err)
	}
	pods := p.Cluster.PodIDs()

	// All of one app's instances land in pod 0; demand approaches the
	// pod's capacity (4 servers × 8 cores).
	slice := cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}
	hot, err := p.OnboardApp("hot.example", slice, 0, core.Demand{})
	if err != nil {
		log.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.DeployInstance(hot.ID, pods[0]); err != nil {
			log.Fatal(err)
		}
	}
	p.SetAppDemand(hot.ID, core.Demand{CPU: 30, Mbps: 300})

	fmt.Println("pod 0 overloaded: demand 30 of 32 cores")
	printPods(p)

	p.Start()
	fmt.Println("\nrunning the global manager (server transfer + deployment + elephant guard)...")
	p.Eng.RunUntil(2400)

	fmt.Printf("\nafter 2400 s: satisfaction=%.3f, server transfers=%d, deployments=%d, elephant moves=%d\n",
		p.TotalSatisfaction(), p.Global.ServerTransfers,
		p.Global.Deployments, p.Global.ElephantMoves)
	printPods(p)

	// Pod-manager decision time on the real pod state.
	fmt.Println("\npod-manager placement decisions (bounded by pod size):")
	for _, pm := range p.PodManagers() {
		elapsed, sat, changes := pm.RunPlacement()
		fmt.Printf("  pod %d: %d servers, %d VMs → controller %v, satisfied %.3f, %d changes\n",
			pm.PodID(), p.Cluster.Pod(pm.PodID()).NumServers(),
			p.Cluster.PodNumVMs(pm.PodID()), elapsed, sat, changes)
	}

	if err := p.AuditErr(); err != nil {
		log.Fatal("invariants: ", err)
	}
	fmt.Println("\ninvariants: ok")
}

func printPods(p *core.Platform) {
	for _, pm := range p.PodManagers() {
		pod := pm.PodID()
		fmt.Printf("  pod %d: %d servers, %d VMs, demand-utilization %.2f\n",
			pod, p.Cluster.Pod(pod).NumServers(), p.Cluster.PodNumVMs(pod), pm.Utilization())
	}
}
