package exp

import (
	"fmt"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/energy"
	"megadc/internal/metrics"
	"megadc/internal/workload"
)

// X1Row is one energy configuration.
type X1Row struct {
	Config          string
	EnergyKWh       float64
	AvgWatts        float64
	MinSatisfaction float64
	MaxServersOff   int
	PowerCycles     int64
	Migrations      int64
}

// X1Result records the energy-consolidation extension experiment.
type X1Result struct {
	Rows       []X1Row
	SavingFrac float64
}

// RunX1 runs one simulated day of diurnal load with and without the
// consolidation knob — the energy objective the paper's related-work
// section says the architecture "fully applies" to.
func RunX1(o Options) (*metrics.Table, *X1Result, error) {
	day := 86400.0
	run := func(consolidate bool) (X1Row, error) {
		topo := core.SmallTopology()
		topo.Pods = 2
		topo.Seed = o.Seed
		p, err := core.NewPlatform(topo, o.configure(core.DefaultConfig()))
		if err != nil {
			return X1Row{}, err
		}
		defer p.Close()
		app, err := p.OnboardApp("site", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}, 4, core.Demand{})
		if err != nil {
			return X1Row{}, err
		}
		p.DriveDemand(app.ID, workload.Diurnal{Base: 1, Amplitude: 0.8, Period: day / 2},
			core.Demand{CPU: 30, Mbps: 300}, 300, day)
		p.Start()
		meter := energy.NewMeter(p, energy.DefaultPowerModel())
		row := X1Row{Config: "always-on", MinSatisfaction: 1}
		var cons *energy.Consolidator
		if consolidate {
			row.Config = "consolidated"
			cons = energy.NewConsolidator(p)
			cons.Attach(meter, 120, 60)
		} else {
			p.Eng.Every(0, 60, func() bool { meter.Sample(); return true })
		}
		p.Eng.Every(600, 600, func() bool {
			if s := p.TotalSatisfaction(); s < row.MinSatisfaction {
				row.MinSatisfaction = s
			}
			if cons != nil && cons.PoweredOff() > row.MaxServersOff {
				row.MaxServersOff = cons.PoweredOff()
			}
			return p.Eng.Now() < day
		})
		p.Eng.RunUntil(day)
		if err := p.AuditErr(); err != nil {
			return X1Row{}, fmt.Errorf("exp: x1 %s: %w", row.Config, err)
		}
		row.EnergyKWh = meter.EnergyWh(day) / 1000
		row.AvgWatts = meter.AverageWatts(day)
		if cons != nil {
			row.PowerCycles = cons.PowerOffs + cons.PowerOns
			row.Migrations = cons.Migrations
		}
		return row, nil
	}
	base, err := run(false)
	if err != nil {
		return nil, nil, err
	}
	consd, err := run(true)
	if err != nil {
		return nil, nil, err
	}
	res := &X1Result{Rows: []X1Row{base, consd}}
	if base.EnergyKWh > 0 {
		res.SavingFrac = 1 - consd.EnergyKWh/base.EnergyKWh
	}
	tb := metrics.NewTable("X1 — energy: consolidation vs always-on (one diurnal day)",
		"config", "energy kWh", "avg W", "min satisfaction", "max servers off", "power cycles", "migrations")
	for _, r := range res.Rows {
		tb.AddRow(r.Config, r.EnergyKWh, r.AvgWatts, r.MinSatisfaction, r.MaxServersOff, r.PowerCycles, r.Migrations)
	}
	tb.AddRow("saving", fmt.Sprintf("%.1f%%", res.SavingFrac*100), "-", "-", "-", "-", "-")
	return tb, res, nil
}
