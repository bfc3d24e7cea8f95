package exp

import (
	"fmt"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/metrics"
	"megadc/internal/multidc"
	"megadc/internal/sim"
)

// X2Row is one timeline sample of the federation experiment.
type X2Row struct {
	TimeSec      float64
	ShareBig     float64
	ShareSmall   float64
	UtilBig      float64
	UtilSmall    float64
	Satisfaction float64
}

// X2Result records the multi-DC steering extension experiment.
type X2Result struct {
	Rows   []X2Row
	Shifts int64
}

// RunX2 exercises the federation layer (the paper's "yet higher level"):
// a demand surge past the small DC's capacity at its share is steered to
// the big DC.
func RunX2(o Options) (*metrics.Table, *X2Result, error) {
	fed := multidc.New(sim.New(o.Seed))
	cfg := o.configure(core.DefaultConfig())
	big, err := fed.AddDC("big", core.SmallTopology(), cfg)
	if err != nil {
		return nil, nil, err
	}
	smallTopo := core.SmallTopology()
	smallTopo.Pods = 2
	smallTopo.ServersPerPod = 4
	small, err := fed.AddDC("small", smallTopo, cfg)
	if err != nil {
		return nil, nil, err
	}
	app, err := fed.OnboardApp("global", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
		4, core.Demand{CPU: 40, Mbps: 300})
	if err != nil {
		return nil, nil, err
	}
	fed.Start(60)
	res := &X2Result{}
	sample := func() {
		shares := fed.Shares(app)
		res.Rows = append(res.Rows, X2Row{
			TimeSec:      fed.Eng.Now(),
			ShareBig:     shares["big"],
			ShareSmall:   shares["small"],
			UtilBig:      fed.Utilization(big),
			UtilSmall:    fed.Utilization(small),
			Satisfaction: fed.TotalSatisfaction(),
		})
	}
	fed.Eng.RunUntil(300)
	sample()
	fed.SetDemand(app, core.Demand{CPU: 140, Mbps: 600})
	for _, t := range []float64{360, 600, 1800, 3600} {
		fed.Eng.RunUntil(t)
		sample()
	}
	if err := fed.CheckInvariants(); err != nil {
		return nil, nil, fmt.Errorf("exp: x2: %w", err)
	}
	res.Shifts = fed.Shifts
	tb := metrics.NewTable("X2 — multi-DC federation steering a surge (140 cores vs 64-core small DC)",
		"t (s)", "share big", "share small", "util big", "util small", "satisfaction")
	for _, r := range res.Rows {
		tb.AddRow(r.TimeSec, r.ShareBig, r.ShareSmall, r.UtilBig, r.UtilSmall, r.Satisfaction)
	}
	return tb, res, nil
}
