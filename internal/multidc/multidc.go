// Package multidc implements the level above the paper's global
// manager, which the paper notes in passing: "resource management can
// also occur at yet higher level across multiple data centers" (Section
// III-A). A Federation owns several Platforms on one simulated clock and
// steers each federated application's demand between data centers
// GSLB-style — the cross-DC analogue of selective VIP exposure: the
// federation's DNS tier decides which DC's VIPs a client resolves to,
// so demand shares shift without touching any DC's internals.
package multidc

import (
	"fmt"
	"slices"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/sim"
)

// DC is one member data center.
type DC struct {
	Name string
	P    *core.Platform
	id   int
}

// FedAppID identifies a federated application.
type FedAppID int

type fedApp struct {
	name   string
	demand core.Demand
	// locals maps DC id → the app's local ID in that DC.
	locals map[int]cluster.AppID
	// shares maps DC id → fraction of the app's demand steered there.
	shares map[int]float64
	slice  cluster.Resources
}

// Federation is the cross-DC resource manager.
type Federation struct {
	Eng *sim.Engine

	dcs  []*DC
	apps map[FedAppID]*fedApp
	next FedAppID

	// HotUtil / ColdUtil are the steering thresholds: demand share moves
	// from DCs above HotUtil to DCs below ColdUtil.
	HotUtil  float64
	ColdUtil float64
	// ShiftStep is the share fraction moved per hot DC per Step.
	ShiftStep float64

	// SnapshotEvery, when positive, makes Step steer on DC-utilization
	// snapshots refreshed at this period instead of live reads — the
	// cross-DC analogue of the control bus's stale pod snapshots
	// (core.Config.Ctrl.SnapshotEvery). 0 keeps the synchronous
	// behaviour: every Step sees current utilization.
	SnapshotEvery float64

	// Shifts counts share adjustments (experiment output).
	Shifts int64

	utilSnap []float64
}

// New returns an empty federation on the given engine.
func New(eng *sim.Engine) *Federation {
	return &Federation{
		Eng:       eng,
		apps:      make(map[FedAppID]*fedApp),
		HotUtil:   0.75,
		ColdUtil:  0.55,
		ShiftStep: 0.25,
	}
}

// AddDC builds a platform on the federation's clock and registers it.
func (f *Federation) AddDC(name string, topo core.Topology, cfg core.Config) (*DC, error) {
	p, err := core.NewPlatformOn(f.Eng, topo, cfg)
	if err != nil {
		return nil, fmt.Errorf("multidc: %s: %w", name, err)
	}
	dc := &DC{Name: name, P: p, id: len(f.dcs)}
	f.dcs = append(f.dcs, dc)
	return dc, nil
}

// DCs returns the member data centers in registration order.
func (f *Federation) DCs() []*DC { return append([]*DC(nil), f.dcs...) }

// OnboardApp onboards a federated application into the listed DCs (all
// DCs when none are listed) with equal initial shares, then applies the
// demand.
func (f *Federation) OnboardApp(name string, slice cluster.Resources, instancesPerDC int, demand core.Demand, dcs ...*DC) (FedAppID, error) {
	if len(dcs) == 0 {
		dcs = f.dcs
	}
	if len(dcs) == 0 {
		return 0, fmt.Errorf("multidc: federation has no data centers")
	}
	fa := &fedApp{
		name:   name,
		locals: make(map[int]cluster.AppID),
		shares: make(map[int]float64),
		slice:  slice,
	}
	for _, dc := range dcs {
		a, err := dc.P.OnboardApp(name, slice, instancesPerDC, core.Demand{})
		if err != nil {
			return 0, fmt.Errorf("multidc: onboarding %s in %s: %w", name, dc.Name, err)
		}
		fa.locals[dc.id] = a.ID
		fa.shares[dc.id] = 1 / float64(len(dcs))
	}
	id := f.next
	f.next++
	f.apps[id] = fa
	f.SetDemand(id, demand)
	return id, nil
}

// SetDemand updates the federated app's total demand and pushes the
// per-DC splits.
func (f *Federation) SetDemand(id FedAppID, demand core.Demand) error {
	fa, ok := f.apps[id]
	if !ok {
		return fmt.Errorf("multidc: unknown app %d", id)
	}
	fa.demand = demand
	f.apply(fa)
	return nil
}

// Demand returns the federated app's total demand.
func (f *Federation) Demand(id FedAppID) core.Demand {
	if fa, ok := f.apps[id]; ok {
		return fa.demand
	}
	return core.Demand{}
}

// Shares returns the app's current demand shares by DC name.
func (f *Federation) Shares(id FedAppID) map[string]float64 {
	out := make(map[string]float64)
	if fa, ok := f.apps[id]; ok {
		for dcID, s := range fa.shares {
			out[f.dcs[dcID].Name] = s
		}
	}
	return out
}

// LocalApp returns the app's local ID within a DC.
func (f *Federation) LocalApp(id FedAppID, dc *DC) (cluster.AppID, bool) {
	fa, ok := f.apps[id]
	if !ok {
		return 0, false
	}
	local, ok := fa.locals[dc.id]
	return local, ok
}

func (f *Federation) apply(fa *fedApp) {
	// Sorted DC order: SetAppDemand triggers per-DC propagation, so the
	// application order must not depend on map iteration.
	dcIDs := make([]int, 0, len(fa.shares))
	for dcID := range fa.shares {
		dcIDs = append(dcIDs, dcID)
	}
	slices.Sort(dcIDs)
	for _, dcID := range dcIDs {
		local := fa.locals[dcID]
		f.dcs[dcID].P.SetAppDemand(local, fa.demand.Scale(fa.shares[dcID]))
	}
}

// Utilization returns a DC's CPU demand over CPU capacity.
func (f *Federation) Utilization(dc *DC) float64 {
	var demand, capacity float64
	for _, pod := range dc.P.Cluster.PodIDs() {
		demand += dc.P.Cluster.PodDemand(pod).CPU
		capacity += dc.P.Cluster.PodCapacity(pod).CPU
	}
	if capacity <= 0 {
		return 0
	}
	return demand / capacity
}

// Step runs one federation control iteration: for every app covering a
// hot DC (> HotUtil) and at least one cold DC (< ColdUtil), ShiftStep of
// the hot share moves to the cold DCs, split evenly. Shares always sum
// to 1 — the cross-DC analogue of weight-preserving RIP adjustment.
func (f *Federation) Step() {
	utils := f.currentUtils()
	// Deterministic app order.
	ids := make([]FedAppID, 0, len(f.apps))
	for id := range f.apps {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		fa := f.apps[id]
		var hot, cold []int
		for dcID := range fa.shares {
			switch {
			case utils[dcID] > f.HotUtil && fa.shares[dcID] > 0:
				hot = append(hot, dcID)
			case utils[dcID] < f.ColdUtil:
				cold = append(cold, dcID)
			}
		}
		if len(hot) == 0 || len(cold) == 0 {
			continue
		}
		slices.Sort(hot)
		slices.Sort(cold)
		var moved float64
		for _, h := range hot {
			d := fa.shares[h] * f.ShiftStep
			fa.shares[h] -= d
			moved += d
		}
		per := moved / float64(len(cold))
		for _, c := range cold {
			fa.shares[c] += per
		}
		f.apply(fa)
		f.Shifts++
	}
}

// currentUtils returns the utilizations Step steers on: the last
// snapshot when SnapshotEvery is set (and at least one refresh has
// happened), live reads otherwise.
func (f *Federation) currentUtils() []float64 {
	if f.SnapshotEvery > 0 && f.utilSnap != nil {
		return f.utilSnap
	}
	utils := make([]float64, len(f.dcs))
	for i, dc := range f.dcs {
		utils[i] = f.Utilization(dc)
	}
	return utils
}

// Start schedules the federation loop, the utilization snapshotter when
// SnapshotEvery is set, and every DC's own control loops.
func (f *Federation) Start(interval float64) {
	for _, dc := range f.dcs {
		dc.P.Start()
	}
	if f.SnapshotEvery > 0 {
		f.Eng.Every(0, f.SnapshotEvery, func() bool {
			snap := make([]float64, len(f.dcs))
			for i, dc := range f.dcs {
				snap[i] = f.Utilization(dc)
			}
			f.utilSnap = snap
			return true
		})
	}
	f.Eng.Every(interval, interval, func() bool {
		f.Step()
		return true
	})
}

// TotalSatisfaction aggregates served/demanded CPU over all DCs.
// Iteration is in sorted ID order so the float sums are independent of
// map iteration order (byte-for-byte reproducible runs).
func (f *Federation) TotalSatisfaction() float64 {
	var served, demand float64
	ids := make([]FedAppID, 0, len(f.apps))
	for id := range f.apps {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		fa := f.apps[id]
		demand += fa.demand.CPU
		dcIDs := make([]int, 0, len(fa.locals))
		for dcID := range fa.locals {
			dcIDs = append(dcIDs, dcID)
		}
		slices.Sort(dcIDs)
		for _, dcID := range dcIDs {
			s := f.dcs[dcID].P.AppSatisfaction(fa.locals[dcID])
			served += s * fa.demand.CPU * fa.shares[dcID]
		}
	}
	if demand == 0 {
		return 1
	}
	return served / demand
}

// CheckInvariants audits every DC (core.Platform.AuditErr) and checks
// share conservation.
func (f *Federation) CheckInvariants() error {
	for _, dc := range f.dcs {
		if err := dc.P.AuditErr(); err != nil {
			return fmt.Errorf("multidc: %s: %w", dc.Name, err)
		}
	}
	// Sorted app and DC order so both the float accumulation and the
	// choice of which violation is reported first are deterministic.
	ids := make([]FedAppID, 0, len(f.apps))
	for id := range f.apps {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	for _, id := range ids {
		fa := f.apps[id]
		dcIDs := make([]int, 0, len(fa.shares))
		for dcID := range fa.shares {
			dcIDs = append(dcIDs, dcID)
		}
		slices.Sort(dcIDs)
		var sum float64
		for _, dcID := range dcIDs {
			s := fa.shares[dcID]
			if s < -1e-9 {
				return fmt.Errorf("multidc: app %d negative share %v", id, s)
			}
			sum += s
		}
		if d := sum - 1; d > 1e-6 || d < -1e-6 {
			return fmt.Errorf("multidc: app %d shares sum to %v", id, sum)
		}
	}
	return nil
}
