package exp

import (
	"fmt"
	"math"

	"megadc/internal/cluster"
	"megadc/internal/lbswitch"
	"megadc/internal/metrics"
	"megadc/internal/policy"
	"megadc/internal/viprip"
	"megadc/internal/workload"
)

// E12Result records the allocation-space analysis and policy ablation.
type E12Result struct {
	// Log10States is log10 of the VIP-placement state space L^(A·k) for
	// the paper's 300K apps / 400 switches / 3 VIPs (the paper writes
	// the expression as A^(L·k); the count of functions from A·k VIP
	// slots to L switches is L^(A·k) — either way astronomically large,
	// which is the paper's point).
	Log10States float64
	Policies    []E12PolicyRow
	Pods        []E12PodRow
}

// E12PolicyRow is one switch-selection policy's outcome.
type E12PolicyRow struct {
	Policy        string
	VIPCountCoV   float64
	ThroughputCoV float64
	MaxSwitchUtil float64
}

// E12PodRow is one hierarchical switch-pod configuration.
type E12PodRow struct {
	SwitchPods    int
	ScanPerAlloc  int // switches examined per allocation decision
	ThroughputCoV float64
	MaxSwitchUtil float64
}

// RunE12 (a) computes the size of the VIP allocation decision space the
// paper calls out in Section V-A, (b) ablates the greedy allocator's
// switch-selection policy, and (c) evaluates the proposed hierarchical
// LB-switch pods that bound allocator work.
func RunE12(o Options) (*metrics.Table, *E12Result, error) {
	res := &E12Result{
		Log10States: 300_000 * 3 * math.Log10(400),
	}
	nApps := 600
	nSwitches := 16
	if o.Full {
		nApps = 6000
		nSwitches = 64
	}
	weights := workload.ZipfWeights(nApps, 0.9)
	limits := lbswitch.CatalystCSM().Scaled(10)
	totalMbps := 0.6 * limits.ThroughputMbps * float64(nSwitches)

	tb := metrics.NewTable("E12 — VIP allocation: state space, policies, switch pods",
		"row", "value", "vip CoV", "tput CoV", "max util", "scan/alloc")
	tb.AddRow("state space (log10, 300K apps, 400 sw, k=3)",
		fmt.Sprintf("10^%.3g", res.Log10States), "-", "-", "-", "-")

	// The manager scores switches by the blend of VIP count and
	// throughput; least-vips and least-load ablate it to one half each.
	vipFraction := func(sw *lbswitch.Switch) float64 {
		return float64(sw.NumVIPs()) / float64(sw.Limits.MaxVIPs)
	}
	for _, pol := range []struct {
		name  string
		place func(*lbswitch.Fabric) policy.Placement
	}{
		{"first-fit", func(*lbswitch.Fabric) policy.Placement { return policy.FirstFit{} }},
		{"least-vips", func(f *lbswitch.Fabric) policy.Placement {
			return scoredPlacement{policy.NewGreedy(nil), f, vipFraction}
		}},
		{"least-load", func(f *lbswitch.Fabric) policy.Placement {
			return scoredPlacement{policy.NewGreedy(nil), f, (*lbswitch.Switch).Utilization}
		}},
		{"blend", func(*lbswitch.Fabric) policy.Placement { return nil }}, // the manager's default greedy
	} {
		vipCoV, tputCoV, maxU, err := allocateWithPolicy(nApps, nSwitches, pol.place, weights, totalMbps, limits)
		if err != nil {
			return nil, nil, err
		}
		res.Policies = append(res.Policies, E12PolicyRow{
			Policy: pol.name, VIPCountCoV: vipCoV, ThroughputCoV: tputCoV, MaxSwitchUtil: maxU,
		})
		tb.AddRow("policy "+pol.name, "-", vipCoV, tputCoV, maxU, nSwitches)
	}
	for _, pods := range []int{1, 4, 16} {
		if pods > nSwitches {
			continue
		}
		tputCoV, maxU, scans, err := allocateHierarchical(nApps, nSwitches, pods, weights, totalMbps, limits)
		if err != nil {
			return nil, nil, err
		}
		res.Pods = append(res.Pods, E12PodRow{
			SwitchPods: pods, ScanPerAlloc: scans, ThroughputCoV: tputCoV, MaxSwitchUtil: maxU,
		})
		tb.AddRow(fmt.Sprintf("switch pods G=%d (blend)", pods), "-", "-", tputCoV, maxU, scans)
	}
	return tb, res, nil
}

// allocateHierarchical places nApps×3 VIPs through the viprip.Hierarchy
// (the Section V-A switch-pod manager) and reports balance plus the
// measured switch scans per allocation.
func allocateHierarchical(nApps, nSwitches, pods int, weights []float64, totalMbps float64, limits lbswitch.Limits) (tputCoV, maxUtil float64, scansPerAlloc int, err error) {
	fab := lbswitch.NewFabric()
	for i := 0; i < nSwitches; i++ {
		fab.AddSwitch(limits)
	}
	vp, err := viprip.NewIPPool("100.64.0.0", uint32(3*nApps+16))
	if err != nil {
		return 0, 0, 0, err
	}
	h, err := viprip.NewHierarchy(viprip.NewManager(fab, vp, nil), pods)
	if err != nil {
		return 0, 0, 0, err
	}
	allocs := 0
	for a := 0; a < nApps; a++ {
		mbps := totalMbps * weights[a]
		for v := 0; v < 3; v++ {
			vip, sw, err := h.AddVIP(cluster.AppID(a))
			if err != nil {
				return 0, 0, 0, fmt.Errorf("exp: e12 hierarchy app %d: %w", a, err)
			}
			if err := fab.Switch(sw).SetVIPLoad(vip, mbps/3); err != nil {
				return 0, 0, 0, err
			}
			allocs++
		}
	}
	var utils []float64
	for _, sw := range fab.Switches() {
		u := sw.Utilization()
		utils = append(utils, u)
		if u > maxUtil {
			maxUtil = u
		}
	}
	if err := h.CheckInvariants(); err != nil {
		return 0, 0, 0, err
	}
	return metrics.CoefficientOfVariation(utils), maxUtil, int(h.Scans) / allocs, nil
}

// scoredPlacement is the default greedy placement with the VIP-switch
// score replaced by score, read from the candidate switch itself.
type scoredPlacement struct {
	*policy.Greedy
	fab   *lbswitch.Fabric
	score func(*lbswitch.Switch) float64
}

func (p scoredPlacement) VIPSwitch(d policy.Decision) int {
	key := d.Key
	d.Load = func(i int) float64 { return p.score(p.fab.Switch(lbswitch.SwitchID(key(i)))) }
	return p.Greedy.VIPSwitch(d)
}

// allocateWithPolicy places nApps×3 VIPs on nSwitches switches through
// a manager whose placement is place(fabric); a nil placement keeps the
// default greedy.
func allocateWithPolicy(nApps, nSwitches int, place func(*lbswitch.Fabric) policy.Placement,
	weights []float64, totalMbps float64, limits lbswitch.Limits) (vipCoV, tputCoV, maxUtil float64, err error) {
	fab := lbswitch.NewFabric()
	for i := 0; i < nSwitches; i++ {
		fab.AddSwitch(limits)
	}
	vp, err := viprip.NewIPPool("100.64.0.0", uint32(3*nApps+16))
	if err != nil {
		return 0, 0, 0, err
	}
	mgr := viprip.NewManager(fab, vp, nil)
	mgr.SetPlacement(place(fab))
	for a := 0; a < nApps; a++ {
		mbps := totalMbps * weights[a]
		for v := 0; v < 3; v++ {
			vip, sw, err := mgr.AddVIP(cluster.AppID(a))
			if err != nil {
				return 0, 0, 0, fmt.Errorf("exp: e12 app %d: %w", a, err)
			}
			if err := fab.Switch(sw).SetVIPLoad(vip, mbps/3); err != nil {
				return 0, 0, 0, err
			}
		}
	}
	var vipCounts, utils []float64
	for _, sw := range fab.Switches() {
		vipCounts = append(vipCounts, float64(sw.NumVIPs()))
		u := sw.Utilization()
		utils = append(utils, u)
		if u > maxUtil {
			maxUtil = u
		}
	}
	return metrics.CoefficientOfVariation(vipCounts), metrics.CoefficientOfVariation(utils), maxUtil, nil
}
