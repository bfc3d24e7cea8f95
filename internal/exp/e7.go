package exp

import (
	"fmt"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/metrics"
)

// E7Row is one knob-subset ablation of the pod-relief experiment.
type E7Row struct {
	Knobs             string
	ReliefSeconds     float64 // first time hot-pod demand util < overload threshold; -1 if never
	FinalPodUtil      float64
	FinalSatisfaction float64
	ServerTransfers   int64
	Deployments       int64
}

// E7Result records the pod-relief ablation.
type E7Result struct {
	Rows []E7Row
}

// RunE7 overloads one pod and compares knob subsets: nothing, server
// transfer only (C), deployment only (D), C+D, and everything. It also
// verifies the elephant guard keeps pod sizes bounded throughout.
func RunE7(o Options) (*metrics.Table, *E7Result, error) {
	type variant struct {
		name string
		cfg  core.Config
	}
	base := core.DefaultConfig()
	base.VIPsPerApp = 2
	base = o.configure(base)
	variants := []variant{
		{"none", base.WithKnobs()},
		{"C (server transfer)", base.WithKnobs(core.KnobServerTransfer)},
		{"D (deployment)", base.WithKnobs(core.KnobAppDeployment)},
		{"C+D", base.WithKnobs(core.KnobServerTransfer, core.KnobAppDeployment)},
		{"all knobs", base},
	}

	res := &E7Result{}
	tb := metrics.NewTable("E7 — relieving an overloaded pod: knob ablation",
		"knobs", "relief s", "final pod util", "final satisfaction", "server transfers", "deployments")

	for _, v := range variants {
		row, err := runPodRelief(o, v.name, v.cfg)
		if err != nil {
			return nil, nil, err
		}
		res.Rows = append(res.Rows, *row)
		relief := fmt.Sprintf("%.4g", row.ReliefSeconds)
		if row.ReliefSeconds < 0 {
			relief = "never"
		}
		tb.AddRow(row.Knobs, relief, row.FinalPodUtil, row.FinalSatisfaction, row.ServerTransfers, row.Deployments)
	}
	return tb, res, nil
}

func runPodRelief(o Options, name string, cfg core.Config) (*E7Row, error) {
	topo := core.SmallTopology()
	topo.Pods = 4
	topo.ServersPerPod = 4
	topo.Seed = o.Seed
	p, err := core.NewPlatform(topo, cfg)
	if err != nil {
		return nil, err
	}
	defer p.Close()
	// Background apps keep the other pods moderately busy.
	for i := 1; i < 4; i++ {
		pod := p.Cluster.PodIDs()[i]
		a, err := p.OnboardApp("bg", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}, 0, core.Demand{})
		if err != nil {
			return nil, err
		}
		for j := 0; j < 2; j++ {
			if _, err := p.DeployInstance(a.ID, pod); err != nil {
				return nil, err
			}
		}
		p.SetAppDemand(a.ID, core.Demand{CPU: 8, Mbps: 50}) // 8/32 = 25%
	}
	// The hot app: all instances in pod 0, demand 30 of 32 cores.
	hot, err := p.OnboardApp("hot", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}, 0, core.Demand{})
	if err != nil {
		return nil, err
	}
	pod0 := p.Cluster.PodIDs()[0]
	for j := 0; j < 4; j++ {
		if _, err := p.DeployInstance(hot.ID, pod0); err != nil {
			return nil, err
		}
	}
	p.SetAppDemand(hot.ID, core.Demand{CPU: 30, Mbps: 300})

	row := &E7Row{Knobs: name, ReliefSeconds: -1}
	horizon := 2400.0
	p.Start()
	p.Eng.Every(1, 5, func() bool {
		if row.ReliefSeconds < 0 && p.Pod(pod0).Utilization() < cfg.PodOverloadUtil {
			row.ReliefSeconds = p.Eng.Now()
		}
		return p.Eng.Now() < horizon
	})
	p.Eng.RunUntil(horizon)

	row.FinalPodUtil = p.Pod(pod0).Utilization()
	row.FinalSatisfaction = p.TotalSatisfaction()
	row.ServerTransfers = p.Global.ServerTransfers
	row.Deployments = p.Global.Deployments + sumLocalDeploys(p)
	if err := p.AuditErr(); err != nil {
		return nil, fmt.Errorf("exp: e7 %s: %w", name, err)
	}
	return row, nil
}

func sumLocalDeploys(p *core.Platform) int64 {
	var n int64
	for _, pm := range p.PodManagers() {
		n += pm.LocalDeploys
	}
	return n
}
