package exp

import (
	"fmt"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/metrics"
	"megadc/internal/sessions"
	"megadc/internal/workload"
)

// X3Result records the session-level drain experiment.
type X3Result struct {
	Started      int64
	Completed    int64
	Broken       int64
	Transfers    int64
	ForceBreaks  int64
	StartSw0Util float64
	FinalSw0Util float64
	BrokenFrac   float64
}

// RunX3 drives discrete sessions against a switch saturated by two
// co-located VIPs and lets the knob-B drain protocol fix it, counting
// the straggler sessions that forced transfers break.
func RunX3(o Options) (*metrics.Table, *X3Result, error) {
	cfg := o.configure(core.DefaultConfig())
	cfg.VIPsPerApp = 2
	topo := core.SmallTopology()
	topo.Seed = o.Seed
	p, err := core.NewPlatform(topo, cfg)
	if err != nil {
		return nil, nil, err
	}
	defer p.Close()
	slice := cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}
	hot, err := p.OnboardApp("hot", slice, 4, core.Demand{})
	if err != nil {
		return nil, nil, err
	}
	var bg []*cluster.Application
	for i := 0; i < 3; i++ {
		a, err := p.OnboardApp("bg", slice, 2, core.Demand{})
		if err != nil {
			return nil, nil, err
		}
		bg = append(bg, a)
	}
	for _, vip := range p.Fabric.VIPsOfApp(hot.ID) {
		if home, _ := p.Fabric.HomeOf(vip); home != 0 {
			if err := p.Fabric.TransferVIP(vip, 0, false); err != nil {
				return nil, nil, err
			}
		}
	}
	scfg := sessions.DefaultConfig()
	scfg.ViolatorFraction = 0.15
	scfg.Template = workload.SessionTemplate{MeanDuration: 60, Mbps: 0.25, CPU: 0.005}
	drv, err := sessions.NewDriver(p, scfg)
	if err != nil {
		return nil, nil, err
	}
	horizon := 2400.0
	if o.Full {
		horizon = 6000
	}
	drv.StopAt = horizon
	if err := drv.AddApp(hot.ID, workload.Constant(40)); err != nil {
		return nil, nil, err
	}
	for _, a := range bg {
		if err := drv.AddApp(a.ID, workload.Constant(4)); err != nil {
			return nil, nil, err
		}
	}
	p.Start()
	res := &X3Result{}
	p.Eng.RunUntil(120)
	res.StartSw0Util = p.Fabric.Switch(0).Utilization()
	p.Eng.RunUntil(horizon)
	res.FinalSw0Util = p.Fabric.Switch(0).Utilization()
	st := drv.TotalStats()
	res.Started = st.Started
	res.Completed = st.Completed
	res.Broken = st.Broken
	res.Transfers = p.Global.VIPTransfers
	res.ForceBreaks = p.Global.DrainForceBreaks
	if st.Started > 0 {
		res.BrokenFrac = float64(st.Broken) / float64(st.Started)
	}
	if err := p.AuditErr(); err != nil {
		return nil, nil, fmt.Errorf("exp: x3: %w", err)
	}
	if o.AuditEvery > 0 {
		rep := p.Audit()
		drv.Audit(rep)
		if err := rep.Err(); err != nil {
			return nil, nil, fmt.Errorf("exp: x3: %w", err)
		}
	}
	tb := metrics.NewTable("X3 — discrete sessions under the knob-B drain protocol",
		"sessions", "completed", "broken", "broken frac", "vip transfers", "forced breaks", "sw0 util start", "sw0 util end")
	tb.AddRow(res.Started, res.Completed, res.Broken, res.BrokenFrac, res.Transfers,
		res.ForceBreaks, res.StartSw0Util, res.FinalSw0Util)
	return tb, res, nil
}
