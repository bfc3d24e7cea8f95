package exp

import (
	"fmt"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/faults"
	"megadc/internal/metrics"
)

// E14Row is one failure-rate point of the availability sweep.
type E14Row struct {
	ServerMTBF   float64
	Faults       int64
	Repairs      int64
	Availability float64 // mean per-app uptime fraction
	UnservedCPU  float64 // integral of unserved CPU demand (core·s)
	TTRp50       float64 // median time-to-recover (s)
	TTRp95       float64
	RouteUpdates int64
}

// E14Result records the availability-vs-failure-rate experiment.
type E14Result struct {
	Rows []E14Row
}

// RunE14 sweeps the component failure rate (server MTBF, with switch,
// link, and flap MTBFs scaled proportionally) under continuous
// MTBF/MTTR churn from the faults injector, and reports how
// availability degrades: mean per-app uptime, the unserved-demand
// integral, time-to-recover percentiles, and the route-update cost of
// the recoveries. This quantifies the paper's reliability claim — the
// fully interconnected access fabric plus replicated instances should
// keep availability high under "normal failures" (SPECI-2's term for
// continuous component churn) rather than only under single
// catastrophic events (X4).
func RunE14(o Options) (*metrics.Table, *E14Result, error) {
	duration := 4000.0
	mtbfs := []float64{8000, 4000, 2000, 1000}
	if o.Full {
		duration = 12000
		mtbfs = []float64{16000, 8000, 4000, 2000, 1000, 500}
	}
	res := &E14Result{}
	for _, mtbf := range mtbfs {
		topo := core.SmallTopology()
		topo.Seed = o.Seed
		cfg := o.configure(core.DefaultConfig())
		p, err := core.NewPlatform(topo, cfg)
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i < 6; i++ {
			if _, err := p.OnboardApp("a", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
				4, core.Demand{CPU: 4, Mbps: 100}); err != nil {
				return nil, nil, err
			}
		}
		fc := faults.DefaultConfig()
		fc.Server.MTBF = mtbf
		fc.Switch.MTBF = 4 * mtbf
		fc.Link.MTBF = 3 * mtbf
		fc.Flap.MTBF = 5 * mtbf
		fc.Flap.Cycles = 3
		fc.Flap.Down = 2
		fc.Flap.Up = 8
		inj := faults.New(p, fc)
		mon := faults.NewMonitor(p, 0.95, 5)
		p.Start()
		inj.Start(duration)
		mon.Start(duration)
		p.Eng.RunUntil(duration)
		p.Close()
		mon.Finish()
		if err := p.AuditErr(); err != nil {
			return nil, nil, fmt.Errorf("exp: e14 mtbf=%v: %w", mtbf, err)
		}
		ttr := mon.Avail.AllRecoveries()
		res.Rows = append(res.Rows, E14Row{
			ServerMTBF:   mtbf,
			Faults:       inj.Faults(),
			Repairs:      inj.Repairs,
			Availability: mon.Avail.MeanUptime(duration),
			UnservedCPU:  mon.Avail.TotalUnserved(),
			TTRp50:       ttr.Quantile(0.5),
			TTRp95:       ttr.Quantile(0.95),
			RouteUpdates: p.Net.RouteUpdates,
		})
	}
	tb := metrics.NewTable("E14 — availability vs component failure rate (MTBF/MTTR churn)",
		"server MTBF (s)", "faults", "repairs", "availability", "unserved (core·s)", "TTR p50 (s)", "TTR p95 (s)", "route updates")
	for _, r := range res.Rows {
		tb.AddRow(r.ServerMTBF, r.Faults, r.Repairs, r.Availability, r.UnservedCPU, r.TTRp50, r.TTRp95, r.RouteUpdates)
	}
	return tb, res, nil
}
