package exp

import (
	"fmt"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/metrics"
)

// E8Row is one knob's step response.
type E8Row struct {
	Knob              string
	RecoverySeconds   float64 // time from the step until satisfaction > 0.95; -1 if never
	FinalSatisfaction float64
}

// E8Result records the agility ladder.
type E8Result struct {
	Rows []E8Row
}

// RunE8 measures each knob's reaction time to a demand step — the
// paper's agility ladder: RIP weight adjustment and VM resize act within
// seconds ("configuring the load balancing switches takes only several
// seconds"; hot-add "on the fly without needing a reboot"), deployment
// within minutes, server transfer slowest.
func RunE8(o Options) (*metrics.Table, *E8Result, error) {
	variants := []struct {
		name string
		knob []core.Knob
	}{
		{"F (RIP weights)", []core.Knob{core.KnobRIPWeights}},
		{"E (VM resize)", []core.Knob{core.KnobVMResize}},
		{"D (deployment)", []core.Knob{core.KnobAppDeployment}},
		{"C (server transfer)", []core.Knob{core.KnobServerTransfer}},
		{"all", []core.Knob{core.KnobSelectiveExposure, core.KnobVIPTransfer, core.KnobServerTransfer,
			core.KnobAppDeployment, core.KnobVMResize, core.KnobRIPWeights}},
	}
	res := &E8Result{}
	tb := metrics.NewTable("E8 — knob agility: recovery time after a 3× demand step",
		"knob", "recovery s", "final satisfaction")
	for _, v := range variants {
		row, err := runAgility(o, v.name, v.knob)
		if err != nil {
			return nil, nil, err
		}
		res.Rows = append(res.Rows, *row)
		rec := fmt.Sprintf("%.4g", row.RecoverySeconds)
		if row.RecoverySeconds < 0 {
			rec = "never"
		}
		tb.AddRow(row.Knob, rec, row.FinalSatisfaction)
	}
	return tb, res, nil
}

func runAgility(o Options, name string, knobs []core.Knob) (*E8Row, error) {
	cfg := o.configure(core.DefaultConfig().WithKnobs(knobs...))
	cfg.VIPsPerApp = 2
	// Faster control loops so the measurement reflects actuation
	// latency, not polling period.
	cfg.PodControlInterval = 5
	cfg.GlobalControlInterval = 5
	topo := core.SmallTopology()
	topo.Pods = 2
	topo.ServersPerPod = 4
	topo.Seed = o.Seed
	p, err := core.NewPlatform(topo, cfg)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	// The app under test: 2 instances, one per pod, initially satisfied.
	app, err := p.OnboardApp("app", cluster.Resources{CPU: 2, MemMB: 1024, NetMbps: 200}, 2, core.Demand{CPU: 3, Mbps: 100})
	if err != nil {
		return nil, err
	}
	const stepAt = 100.0
	horizon := 2400.0
	p.Eng.At(stepAt, func() {
		p.SetAppDemand(app.ID, core.Demand{CPU: 9, Mbps: 300})
	})
	row := &E8Row{Knob: name, RecoverySeconds: -1}
	p.Start()
	p.Eng.Every(stepAt+1, 1, func() bool {
		if row.RecoverySeconds < 0 && p.AppSatisfaction(app.ID) > 0.95 {
			row.RecoverySeconds = p.Eng.Now() - stepAt
		}
		return p.Eng.Now() < horizon
	})
	p.Eng.RunUntil(horizon)
	row.FinalSatisfaction = p.AppSatisfaction(app.ID)
	if err := p.AuditErr(); err != nil {
		return nil, fmt.Errorf("exp: e8 %s: %w", name, err)
	}
	return row, nil
}
