package exp

import (
	"fmt"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/metrics"
)

// X4Row is one failure domain's outcome.
type X4Row struct {
	Failure         string
	RouteUpdates    int64
	SatisfactionDip float64 // satisfaction right after the failure
	SatisfactionEnd float64 // after the control loops recover
	Detail          string
}

// X4Result records the failure-recovery extension experiment.
type X4Result struct {
	Rows []X4Row
}

// RunX4 injects one failure per domain (server, LB switch, access link)
// into separate platforms and records the route-update cost and recovery
// — the reliability story behind the paper's fully interconnected access
// fabric.
func RunX4(o Options) (*metrics.Table, *X4Result, error) {
	res := &X4Result{}
	type injector func(p *core.Platform) (string, error)
	cases := []struct {
		name   string
		inject injector
	}{
		{"server", func(p *core.Platform) (string, error) {
			victim := p.Cluster.ServerIDs()[0]
			lost, err := p.FailServer(victim)
			return fmt.Sprintf("%d VMs lost", lost), err
		}},
		{"switch", func(p *core.Platform) (string, error) {
			rehomed, dropped, err := p.FailSwitch(0)
			return fmt.Sprintf("%d VIPs re-homed, %d dropped", rehomed, dropped), err
		}},
		{"link", func(p *core.Platform) (string, error) {
			readv, err := p.FailLink(0)
			return fmt.Sprintf("%d VIPs re-advertised", readv), err
		}},
	}
	for _, c := range cases {
		topo := core.SmallTopology()
		topo.Seed = o.Seed
		p, err := core.NewPlatform(topo, o.configure(core.DefaultConfig()))
		if err != nil {
			return nil, nil, err
		}
		for i := 0; i < 6; i++ {
			if _, err := p.OnboardApp("a", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
				4, core.Demand{CPU: 4, Mbps: 100}); err != nil {
				return nil, nil, err
			}
		}
		p.Start()
		p.Eng.RunUntil(100)
		updatesBefore := p.Net.RouteUpdates
		detail, err := c.inject(p)
		if err != nil {
			return nil, nil, fmt.Errorf("exp: x4 %s: %w", c.name, err)
		}
		dip := p.TotalSatisfaction()
		p.Eng.RunUntil(1500)
		p.Close()
		if err := p.AuditErr(); err != nil {
			return nil, nil, fmt.Errorf("exp: x4 %s: %w", c.name, err)
		}
		res.Rows = append(res.Rows, X4Row{
			Failure:         c.name,
			RouteUpdates:    p.Net.RouteUpdates - updatesBefore,
			SatisfactionDip: dip,
			SatisfactionEnd: p.TotalSatisfaction(),
			Detail:          detail,
		})
	}
	tb := metrics.NewTable("X4 — failure domains: route-update cost and recovery",
		"failure", "route updates", "satisfaction dip", "satisfaction end", "detail")
	for _, r := range res.Rows {
		tb.AddRow(r.Failure, r.RouteUpdates, r.SatisfactionDip, r.SatisfactionEnd, r.Detail)
	}
	return tb, res, nil
}
