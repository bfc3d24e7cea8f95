package core_test

import (
	"fmt"

	"megadc/internal/cluster"
	"megadc/internal/core"
)

// Build a platform, onboard an application end to end, and let the
// hierarchical managers absorb a demand spike.
func Example() {
	p, err := core.NewPlatform(core.SmallTopology(), core.DefaultConfig())
	if err != nil {
		panic(err)
	}
	app, err := p.OnboardApp("shop.example",
		cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
		4, core.Demand{CPU: 3, Mbps: 300})
	if err != nil {
		panic(err)
	}
	fmt.Printf("VIPs: %d, instances: %d, satisfaction: %.2f\n",
		len(p.Fabric.VIPsOfApp(app.ID)), app.NumInstances(), p.AppSatisfaction(app.ID))

	p.Start()
	p.SetAppDemand(app.ID, core.Demand{CPU: 12, Mbps: 600})
	fmt.Printf("after 4x spike: %.2f\n", p.AppSatisfaction(app.ID))
	p.Eng.RunUntil(1800)
	fmt.Printf("after the knobs react: %.2f (invariants ok: %v)\n",
		p.AppSatisfaction(app.ID), p.AuditErr() == nil)
	// Output:
	// VIPs: 3, instances: 4, satisfaction: 1.00
	// after 4x spike: 0.33
	// after the knobs react: 1.00 (invariants ok: true)
}
