// Greendc: the energy extension the paper's related-work section points
// at. A diurnal workload runs for one simulated day twice — once with
// the consolidation knob (vacate idle servers, power them off, power
// back on under load) and once without — and the energy and satisfaction
// are compared.
//
//	go run ./examples/greendc
package main

import (
	"fmt"
	"log"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/energy"
	"megadc/internal/workload"
)

func main() {
	fmt.Println("one simulated day of diurnal load (mean ~25%, peak ~45% of capacity)")
	fmt.Println()
	baseWh, baseSat, _ := run(false)
	consWh, consSat, offPeak := run(true)
	fmt.Printf("%-16s %12s %14s %12s\n", "configuration", "energy (kWh)", "min satisfact.", "servers off (peak)")
	fmt.Printf("%-16s %12.1f %14.3f %12s\n", "always-on", baseWh/1000, baseSat, "0")
	fmt.Printf("%-16s %12.1f %14.3f %12d\n", "consolidated", consWh/1000, consSat, offPeak)
	fmt.Printf("\nsaving: %.1f%%\n", (1-consWh/baseWh)*100)
}

func run(consolidate bool) (wh, minSat float64, maxOff int) {
	topo := core.SmallTopology()
	topo.Pods = 2
	topo.ServersPerPod = 8
	p, err := core.NewPlatform(topo, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	app, err := p.OnboardApp("site", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
		4, core.Demand{})
	if err != nil {
		log.Fatal(err)
	}
	p.DriveDemand(app.ID, workload.Diurnal{Base: 1, Amplitude: 0.8, Period: 43200},
		core.Demand{CPU: 30, Mbps: 300}, 300, 86400)
	p.Start()
	meter := energy.NewMeter(p, energy.DefaultPowerModel())
	minSat = 1.0
	var cons *energy.Consolidator
	if consolidate {
		cons = energy.NewConsolidator(p)
		cons.Attach(meter, 120, 60)
	} else {
		p.Eng.Every(0, 60, func() bool { meter.Sample(); return true })
	}
	p.Eng.Every(600, 600, func() bool {
		if s := p.TotalSatisfaction(); s < minSat {
			minSat = s
		}
		if cons != nil && cons.PoweredOff() > maxOff {
			maxOff = cons.PoweredOff()
		}
		return p.Eng.Now() < 86400
	})
	p.Eng.RunUntil(86400)
	if err := p.AuditErr(); err != nil {
		log.Fatal("invariants: ", err)
	}
	return meter.EnergyWh(86400), minSat, maxOff
}
