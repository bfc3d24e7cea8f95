// Faultchurn: continuous rate-driven component churn — the "normal
// failures" regime of a mega data center. Servers, LB switches, and
// access links fail with exponential MTBF, are detected after a delay
// (during which their traffic black-holes while monitoring looks
// normal), and are repaired with exponential MTTR back to their exact
// pre-failure capacity. Links additionally flap: short down/up cycles
// that clear before detection, losing traffic with zero route churn.
// An availability monitor integrates the damage per application.
//
//	go run ./examples/faultchurn
package main

import (
	"fmt"
	"log"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/faults"
)

func main() {
	const duration = 3600.0

	topo := core.SmallTopology()
	p, err := core.NewPlatform(topo, core.DefaultConfig())
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

	fc := faults.DefaultConfig()
	fc.Server = faults.Class{MTBF: 1500, MTTR: 180, DetectDelay: 15}
	fc.Switch = faults.Class{MTBF: 6000, MTTR: 300, DetectDelay: 10}
	fc.Link = faults.Class{MTBF: 5000, MTTR: 240, DetectDelay: 5}
	fc.Flap = faults.FlapConfig{MTBF: 4000, Cycles: 3, Down: 2, Up: 8}
	inj := faults.New(p, fc)
	mon := faults.NewMonitor(p, 0.95, 5)

	p.Start()
	inj.Start(duration)
	mon.Start(duration)
	p.Eng.Every(600, 600, func() bool {
		fmt.Printf("t=%5.0fs satisfaction=%.3f faults=%3d repairs=%3d\n",
			p.Eng.Now(), p.TotalSatisfaction(), inj.Faults(), inj.Repairs)
		return p.Eng.Now() < duration
	})
	p.Eng.RunUntil(duration)
	mon.Finish()

	av := mon.Avail
	fmt.Println()
	fmt.Printf("churn over %.0fs: %d faults (%d server, %d switch, %d link, %d flap cycles)\n",
		duration, inj.Faults(), inj.ServerFaults, inj.SwitchFaults, inj.LinkFaults, inj.FlapCycles)
	fmt.Printf("                 %d detected, %d repaired, %d skipped by min-healthy floors\n",
		inj.Detections, inj.Repairs, inj.Skipped)
	fmt.Println()
	fmt.Println("per-app availability:")
	for _, key := range av.Keys() {
		fmt.Printf("  %-8s uptime=%.4f  outages=%2d  downtime=%6.0fs  unserved=%8.0f core·s\n",
			key, av.Uptime(key, duration), av.Outages(key), av.Downtime(key), av.Unserved(key))
	}
	ttr := av.AllRecoveries()
	fmt.Println()
	fmt.Printf("time-to-recover: p50=%.0fs p95=%.0fs max=%.0fs (%d recoveries)\n",
		ttr.Quantile(0.5), ttr.Quantile(0.95), ttr.Max(), ttr.N())
	fmt.Printf("route updates: %d\n", p.Net.RouteUpdates)

	if err := p.AuditErr(); err != nil {
		log.Fatal("invariant violation: ", err)
	}
	fmt.Println("invariants: ok")
}
