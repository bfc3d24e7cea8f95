package exp

import (
	"fmt"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/lbswitch"
	"megadc/internal/metrics"
	"megadc/internal/netmodel"
	"megadc/internal/viprip"
)

// E5Row is one VIPs-per-application configuration.
type E5Row struct {
	VIPsPerApp      int
	StartHotUtil    float64 // hot-link utilization before knob A acts
	MaxLinkUtil     float64 // worst link utilization after knob A converges
	LinkCoV         float64 // coefficient of variation across links
	SwitchesNeeded  int     // paper arithmetic at full scale
	ExposureChanges int64
}

// E5Result records the VIPs-per-app tradeoff (the study the paper
// explicitly defers: "The tradeoff between the flexibility for load
// balancing and the number of LB switches will be evaluated
// quantitatively in our ongoing work").
type E5Result struct {
	Rows []E5Row
}

// RunE5 sweeps k = VIPs per application. Scenario: four popular
// applications were historically steered to their link-0 VIP (their DNS
// exposure concentrated there), overloading link 0 at 150%; the other
// links carry a ~45% background. Selective exposure must spread the
// popular apps over their alternative VIPs, which are advertised on
// distinct other links: with k = 1 there is no alternative; larger k
// spreads over more links and balances better. The cost side is the
// paper's switch arithmetic at the 300K-application scale.
func RunE5(o Options) (*metrics.Table, *E5Result, error) {
	const (
		nLinks   = 8
		headApps = 4
		bgApps   = 14 // two per non-hot link
	)
	steps := 20
	if o.Full {
		steps = 40
	}
	res := &E5Result{}
	tb := metrics.NewTable("E5 — VIPs per application: balance vs switch cost",
		"vips/app", "hot util before", "max link util after", "link CoV", "exposure changes", "switches @300K apps")

	for k := 1; k <= 6; k++ {
		topo := core.SmallTopology()
		topo.ISPs = 4
		topo.LinksPerISP = 2
		topo.LinkMbps = 500
		topo.BorderRouters = 2
		topo.Switches = 8
		topo.Pods = 4
		topo.ServersPerPod = 8
		topo.Seed = o.Seed
		cfg := core.DefaultConfig().WithKnobs(core.KnobSelectiveExposure)
		cfg.VIPsPerApp = k
		// The experiment hand-places every advertisement; unused-VIP
		// recycling would move the (deliberately) unexposed alternates.
		cfg.RecycleUnusedVIPs = false
		cfg = o.configure(cfg)
		p, err := core.NewPlatform(topo, cfg)
		if err != nil {
			return nil, nil, fmt.Errorf("exp: e5 k=%d: %w", k, err)
		}
		slice := cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}
		instances := k
		if instances < 2 {
			instances = 2
		}

		// Head apps: VIP 0 re-advertised on link 0, alternatives spread
		// over the other links; exposure concentrated on VIP 0.
		hotLink := netmodel.LinkID(0)
		headDemand := 1.5 * topo.LinkMbps / headApps // Σ = 150% of link 0
		for h := 0; h < headApps; h++ {
			a, err := p.OnboardApp("head", slice, instances, core.Demand{})
			if err != nil {
				return nil, nil, fmt.Errorf("exp: e5 head onboarding: %w", err)
			}
			vips := p.DNS.VIPs(a.ID)
			for j, vip := range vips {
				target := hotLink
				if j > 0 {
					target = netmodel.LinkID(1 + (h+headApps*(j-1))%(nLinks-1))
				}
				if err := readvertise(p, vip, target); err != nil {
					return nil, nil, err
				}
			}
			if err := p.DNS.ExposeOnly(a.ID, vips[0]); err != nil {
				return nil, nil, err
			}
			p.SetAppDemand(a.ID, core.Demand{CPU: headDemand / 50, Mbps: headDemand})
		}
		// Background apps on the non-hot links, ~45% per link.
		bgPerApp := 0.45 * topo.LinkMbps * (nLinks - 1) / bgApps
		for i := 0; i < bgApps; i++ {
			a, err := p.OnboardApp("bg", slice, instances, core.Demand{})
			if err != nil {
				return nil, nil, fmt.Errorf("exp: e5 bg onboarding: %w", err)
			}
			for j, vip := range p.DNS.VIPs(a.ID) {
				target := netmodel.LinkID(1 + (i+bgApps*j)%(nLinks-1))
				if err := readvertise(p, vip, target); err != nil {
					return nil, nil, err
				}
			}
			p.SetAppDemand(a.ID, core.Demand{CPU: bgPerApp / 50, Mbps: bgPerApp})
		}
		p.Propagate()
		startHot := p.Net.Link(hotLink).Utilization()

		for s := 0; s < steps; s++ {
			p.Global.Step()
			p.Eng.RunFor(cfg.DNSUpdateLatency + 1)
		}
		p.Close()
		utils := p.Net.LinkUtilizations()
		var maxU float64
		for _, u := range utils {
			if u > maxU {
				maxU = u
			}
		}
		row := E5Row{
			VIPsPerApp:      k,
			StartHotUtil:    startHot,
			MaxLinkUtil:     maxU,
			LinkCoV:         metrics.CoefficientOfVariation(utils),
			SwitchesNeeded:  viprip.MinSwitchCount(300_000, k, 20, lbswitch.CatalystCSM()),
			ExposureChanges: p.Global.ExposureChanges,
		}
		res.Rows = append(res.Rows, row)
		tb.AddRow(k, row.StartHotUtil, row.MaxLinkUtil, row.LinkCoV, row.ExposureChanges, row.SwitchesNeeded)
		if err := o.auditCheck(p); err != nil {
			return nil, nil, fmt.Errorf("exp: e5 k=%d: %w", k, err)
		}
	}
	return tb, res, nil
}

// readvertise moves a VIP's single advertisement to the target link.
func readvertise(p *core.Platform, addr lbswitch.VIP, target netmodel.LinkID) error {
	vip, ok := p.Fabric.Handle(addr)
	if !ok {
		return fmt.Errorf("exp: e5: VIP %s was never placed", addr)
	}
	for _, l := range p.Net.AllLinks(vip) {
		if l == target {
			return nil
		}
		if err := p.Net.Withdraw(vip, l); err != nil {
			return err
		}
	}
	if already := p.Net.ActiveLinks(vip); len(already) > 0 {
		return nil
	}
	return p.Net.Advertise(vip, target, false)
}
