package exp

import (
	"math"

	"megadc/internal/cluster"
	"megadc/internal/lbswitch"
	"megadc/internal/metrics"
	"megadc/internal/netmodel"
	"megadc/internal/viprip"
	"megadc/internal/workload"
)

// E10Result records the fabric-bottleneck experiment.
type E10Result struct {
	Apps              int
	ExternalFraction  float64
	TotalExternalMbps float64
	SwitchesVIPDriven int
	SwitchesUsed      int
	AggregateGbps     float64
	MaxSwitchUtil     float64
	SwitchCoV         float64
	HoseAdmissible    bool
}

// RunE10 checks the paper's Section III-B argument that the LB layer is
// not a bottleneck: the switches carry only the ~20% of traffic that
// enters/leaves the DC (VL2's measurement), the VIP-count arithmetic
// already provisions ample aggregate throughput, and the full-bisection
// hose fabric admits the switch↔server flows.
func RunE10(o Options) (*metrics.Table, *E10Result, error) {
	apps := 3000
	meanAppMbps := 2.0
	if o.Full {
		apps = 30000
	}
	limits := lbswitch.CatalystCSM()
	weights := workload.ZipfWeights(apps, 0.9)
	totalExternal := meanAppMbps * float64(apps)
	// Internal traffic is the other 80% of the DC mix (4× external).
	split := netmodel.TrafficSplit{ExternalMbps: totalExternal, InternalMbps: 4 * totalExternal}

	vipDriven := viprip.MinSwitchCount(apps, 2, 0, limits)
	tputDriven := int(math.Ceil(totalExternal / (0.9 * limits.ThroughputMbps)))
	nSwitches := vipDriven
	if tputDriven > nSwitches {
		nSwitches = tputDriven
	}

	fab := lbswitch.NewFabric()
	for i := 0; i < nSwitches; i++ {
		fab.AddSwitch(limits)
	}
	vipPool, err := viprip.NewIPPool("100.64.0.0", uint32(2*apps+16))
	if err != nil {
		return nil, nil, err
	}
	ripPool, err := viprip.NewIPPool("10.0.0.0", uint32(apps+16))
	if err != nil {
		return nil, nil, err
	}
	mgr := viprip.NewManager(fab, vipPool, ripPool)

	// Hose fabric: servers are hosts 1..N with 1 Gbps; switches are
	// hosts -1..-nSwitches attached with their full throughput.
	hose := netmodel.NewHoseFabric(1000)
	for i := 0; i < nSwitches; i++ {
		hose.SetHostCap(-i-1, limits.ThroughputMbps)
	}
	for a := 0; a < apps; a++ {
		appID := cluster.AppID(a)
		mbps := totalExternal * weights[a]
		var vips []lbswitch.VIP
		for v := 0; v < 2; v++ {
			vip, _, err := mgr.AddVIP(appID)
			if err != nil {
				return nil, nil, err
			}
			vips = append(vips, vip)
		}
		for i, vip := range vips {
			home, _ := fab.HomeOf(vip)
			fab.Switch(home).SetVIPLoad(vip, mbps/2)
			// One flow per VIP from the switch to the app's server (app a
			// served by server a+1 in this scaled model).
			if err := hose.Offer(netmodel.Flow{Src: -int(home) - 1, Dst: a + 1, Mbps: mbps / 2}); err != nil {
				return nil, nil, err
			}
			_ = i
		}
	}
	utils := fab.Utilizations()
	var maxU float64
	for _, u := range utils {
		if u > maxU {
			maxU = u
		}
	}
	admissible, _ := hose.Admissible()
	res := &E10Result{
		Apps:              apps,
		ExternalFraction:  split.ExternalFraction(),
		TotalExternalMbps: totalExternal,
		SwitchesVIPDriven: vipDriven,
		SwitchesUsed:      nSwitches,
		AggregateGbps:     fab.AggregateCapacityMbps() / 1000,
		MaxSwitchUtil:     maxU,
		SwitchCoV:         metrics.CoefficientOfVariation(utils),
		HoseAdmissible:    admissible,
	}
	tb := metrics.NewTable("E10 — LB fabric headroom at the access layer",
		"apps", "external frac", "external Gbps", "switches (vip-driven)", "switches used",
		"aggregate Gbps", "max switch util", "switch CoV", "hose admissible")
	tb.AddRow(res.Apps, res.ExternalFraction, res.TotalExternalMbps/1000, res.SwitchesVIPDriven,
		res.SwitchesUsed, res.AggregateGbps, res.MaxSwitchUtil, res.SwitchCoV, res.HoseAdmissible)
	return tb, res, nil
}
