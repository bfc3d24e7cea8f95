// Package twolayer implements the paper's Section V-B extension: a
// two-LB-layer architecture that inserts a *demand-distribution layer*
// of LB switches between the access connection layer and the
// load-balancing layer. External VIPs live on demand-distribution (DD)
// switches and map to private middle-layer VIPs (m-VIPs) configured on
// the load-balancing (LB) switches; the m-VIPs map to the real RIPs. To
// conserve m-VIPs, all external VIPs of one application map to the same
// m-VIP set.
//
// The point of the indirection is decoupling: selective VIP exposure
// (access-link balancing) only touches external VIPs and the DD layer,
// while server-pod balancing only touches m-VIP weights on the DD layer
// and RIP weights on the LB layer — eliminating the policy conflicts of
// the single-layer design (quantified by the conflict model in this
// package), at the cost of the extra DD switches.
package twolayer

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"megadc/internal/cluster"
	"megadc/internal/lbswitch"
	"megadc/internal/viprip"
)

// Arch is one two-layer deployment.
type Arch struct {
	DD *lbswitch.Fabric // demand-distribution layer (external VIPs)
	LB *lbswitch.Fabric // load-balancing layer (m-VIPs → RIPs)

	extPool *viprip.IPPool // public addresses for external VIPs
	mPool   *viprip.IPPool // private addresses for m-VIPs

	// mvipsOf lists each application's m-VIP set (shared by all of the
	// app's external VIPs).
	mvipsOf map[cluster.AppID][]lbswitch.VIP
	extsOf  map[cluster.AppID][]lbswitch.VIP
}

// ErrUnknownApp is returned for operations on an app never onboarded.
var ErrUnknownApp = errors.New("twolayer: unknown application")

// ErrBadWeight rejects non-positive and non-finite weights at the
// package boundary, before any switch is touched. It matches
// errors.Is(err, lbswitch.ErrBadWeight) so callers can test either.
var ErrBadWeight = fmt.Errorf("twolayer: %w", lbswitch.ErrBadWeight)

// validWeight mirrors the switch-level rule: positive and finite. NaN
// fails every comparison, so w > 0 already rejects it; the explicit
// upper bound rejects +Inf.
func validWeight(w float64) bool {
	return w > 0 && w < math.Inf(1)
}

// New builds a two-layer architecture with the given switch counts and
// per-switch limits (same limits for both layers).
func New(ddSwitches, lbSwitches int, limits lbswitch.Limits) (*Arch, error) {
	if ddSwitches <= 0 || lbSwitches <= 0 {
		return nil, fmt.Errorf("twolayer: need switches in both layers")
	}
	extPool, err := viprip.NewIPPool("198.51.0.0", 1<<16)
	if err != nil {
		return nil, err
	}
	mPool, err := viprip.NewIPPool("172.16.0.0", 1<<16)
	if err != nil {
		return nil, err
	}
	a := &Arch{
		DD:      lbswitch.NewFabric(),
		LB:      lbswitch.NewFabric(),
		extPool: extPool,
		mPool:   mPool,
		mvipsOf: make(map[cluster.AppID][]lbswitch.VIP),
		extsOf:  make(map[cluster.AppID][]lbswitch.VIP),
	}
	for i := 0; i < ddSwitches; i++ {
		a.DD.AddSwitch(limits)
	}
	for i := 0; i < lbSwitches; i++ {
		a.LB.AddSwitch(limits)
	}
	return a, nil
}

// OnboardApp allocates nExt external VIPs on DD switches and nM m-VIPs
// on LB switches, and maps every external VIP to the full m-VIP set with
// unit weights.
func (a *Arch) OnboardApp(app cluster.AppID, nExt, nM int) (ext, mvips []lbswitch.VIP, err error) {
	if _, dup := a.mvipsOf[app]; dup {
		return nil, nil, fmt.Errorf("twolayer: app %d already onboarded", app)
	}
	if nExt <= 0 || nM <= 0 {
		return nil, nil, fmt.Errorf("twolayer: need at least one external VIP and one m-VIP")
	}
	for i := 0; i < nM; i++ {
		mvip, err := a.mPool.Alloc()
		if err != nil {
			return nil, nil, err
		}
		sw := leastVIPs(a.LB)
		if sw == nil {
			return nil, nil, fmt.Errorf("twolayer: LB layer full")
		}
		if err := a.LB.PlaceVIP(mvip, app, sw.ID); err != nil {
			return nil, nil, err
		}
		mvips = append(mvips, mvip)
	}
	for i := 0; i < nExt; i++ {
		evip, err := a.extPool.Alloc()
		if err != nil {
			return nil, nil, err
		}
		sw := leastVIPs(a.DD)
		if sw == nil {
			return nil, nil, fmt.Errorf("twolayer: DD layer full")
		}
		if err := a.DD.PlaceVIP(evip, app, sw.ID); err != nil {
			return nil, nil, err
		}
		// The external VIP's "RIP group" on the DD switch is the m-VIP
		// set (m-VIPs are private addresses, usable as RIPs here).
		for _, mvip := range mvips {
			if err := sw.AddRIP(evip, lbswitch.RIP(mvip), 1); err != nil {
				return nil, nil, err
			}
		}
		ext = append(ext, evip)
	}
	a.mvipsOf[app] = mvips
	a.extsOf[app] = ext
	return ext, mvips, nil
}

// MVIPs returns the application's m-VIP set.
func (a *Arch) MVIPs(app cluster.AppID) []lbswitch.VIP {
	return append([]lbswitch.VIP(nil), a.mvipsOf[app]...)
}

// ExternalVIPs returns the application's external VIPs.
func (a *Arch) ExternalVIPs(app cluster.AppID) []lbswitch.VIP {
	return append([]lbswitch.VIP(nil), a.extsOf[app]...)
}

// AddRIP configures a real RIP with the given weight under one of the
// app's m-VIPs (the least-loaded eligible LB switch).
func (a *Arch) AddRIP(app cluster.AppID, rip lbswitch.RIP, weight float64) (lbswitch.VIP, error) {
	mvips, ok := a.mvipsOf[app]
	if !ok {
		return 0, fmt.Errorf("%w: %d", ErrUnknownApp, app)
	}
	// Reject bad weights before scanning for a target m-VIP, so the
	// caller gets the typed error rather than a switch-level failure
	// after the placement decision was already made.
	if !validWeight(weight) {
		return 0, fmt.Errorf("%w: %v for rip %s", ErrBadWeight, weight, rip)
	}
	var best lbswitch.VIP
	bestN := -1
	for _, m := range mvips {
		home, ok := a.LB.HomeOf(m)
		if !ok {
			continue
		}
		sw := a.LB.Switch(home)
		if sw.NumRIPs() >= sw.Limits.MaxRIPs {
			continue
		}
		rips, _, err := sw.Weights(m)
		if err != nil {
			continue
		}
		if bestN < 0 || len(rips) < bestN {
			best, bestN = m, len(rips)
		}
	}
	if bestN < 0 {
		return 0, fmt.Errorf("twolayer: no m-VIP with spare RIP capacity for app %d", app)
	}
	home, _ := a.LB.HomeOf(best)
	if err := a.LB.Switch(home).AddRIP(best, rip, weight); err != nil {
		return 0, err
	}
	return best, nil
}

// SetMVIPWeights adjusts how an external VIP splits its traffic over the
// application's m-VIPs — the *pod balancing* control in the two-layer
// design, invisible to DNS and the access links. weights is parallel to
// MVIPs(app) and applies to every external VIP of the app.
func (a *Arch) SetMVIPWeights(app cluster.AppID, weights []float64) error {
	mvips, ok := a.mvipsOf[app]
	if !ok {
		return fmt.Errorf("%w: %d", ErrUnknownApp, app)
	}
	if len(weights) != len(mvips) {
		return fmt.Errorf("twolayer: %d weights for %d m-VIPs", len(weights), len(mvips))
	}
	// Validate the whole vector before applying any element: a bad
	// weight discovered mid-loop would leave some external VIPs (or some
	// m-VIP columns of one external VIP) on the new split and the rest
	// on the old — the same partial-application bug class fixed in
	// viprip.AdjustWeights during PR 4. NaN would otherwise slip past a
	// total check (every NaN comparison is false) and only fail at the
	// switch after earlier columns were already written.
	for i, w := range weights {
		if !validWeight(w) {
			return fmt.Errorf("%w: %v for m-VIP %s (index %d)", ErrBadWeight, w, mvips[i], i)
		}
	}
	for _, evip := range a.extsOf[app] {
		home, ok := a.DD.HomeOf(evip)
		if !ok {
			continue
		}
		sw := a.DD.Switch(home)
		for i, mvip := range mvips {
			if err := sw.SetWeight(evip, lbswitch.RIP(mvip), weights[i]); err != nil {
				return err
			}
		}
	}
	a.propagate(app)
	return nil
}

// SetExternalLoad sets the fluid load arriving at one external VIP (as
// steered by DNS) and repropagates the app's m-VIP loads.
func (a *Arch) SetExternalLoad(ext lbswitch.VIP, mbps float64) error {
	home, ok := a.DD.HomeOf(ext)
	if !ok {
		return fmt.Errorf("twolayer: unknown external VIP %s", ext)
	}
	if err := a.DD.Switch(home).SetVIPLoad(ext, mbps); err != nil {
		return err
	}
	if app, ok := a.DD.Switch(home).AppOf(ext); ok {
		a.propagate(app)
	}
	return nil
}

// propagate recomputes the app's m-VIP loads on the LB layer from the
// external loads and DD-layer weights.
func (a *Arch) propagate(app cluster.AppID) {
	mLoad := make(map[lbswitch.VIP]float64, len(a.mvipsOf[app]))
	for _, evip := range a.extsOf[app] {
		home, ok := a.DD.HomeOf(evip)
		if !ok {
			continue
		}
		sw := a.DD.Switch(home)
		rips, shares, err := sw.VIPLoadShare(evip)
		if err != nil {
			continue
		}
		for i, rip := range rips {
			mLoad[lbswitch.VIP(rip)] += shares[i]
		}
	}
	for _, mvip := range a.mvipsOf[app] {
		if home, ok := a.LB.HomeOf(mvip); ok {
			a.LB.Switch(home).SetVIPLoad(mvip, mLoad[mvip])
		}
	}
}

// ExtraSwitches returns the added hardware cost of the two-layer design:
// the number of demand-distribution switches.
func (a *Arch) ExtraSwitches() int { return a.DD.NumSwitches() }

// CheckInvariants validates both layers and the mapping tables.
func (a *Arch) CheckInvariants() error {
	if err := a.DD.CheckInvariants(); err != nil {
		return err
	}
	if err := a.LB.CheckInvariants(); err != nil {
		return err
	}
	// Sorted app order so the first violation reported does not depend
	// on map iteration order.
	apps := make([]cluster.AppID, 0, len(a.mvipsOf))
	for app := range a.mvipsOf {
		apps = append(apps, app)
	}
	slices.Sort(apps)
	for _, app := range apps {
		mvips := a.mvipsOf[app]
		for _, m := range mvips {
			if _, ok := a.LB.HomeOf(m); !ok {
				return fmt.Errorf("twolayer: app %d m-VIP %s not homed on LB layer", app, m)
			}
		}
		for _, e := range a.extsOf[app] {
			home, ok := a.DD.HomeOf(e)
			if !ok {
				return fmt.Errorf("twolayer: app %d external VIP %s not homed on DD layer", app, e)
			}
			rips, _, err := a.DD.Switch(home).Weights(e)
			if err != nil {
				return err
			}
			if len(rips) != len(mvips) {
				return fmt.Errorf("twolayer: external VIP %s maps to %d m-VIPs, app has %d", e, len(rips), len(mvips))
			}
		}
	}
	return nil
}

func leastVIPs(f *lbswitch.Fabric) *lbswitch.Switch {
	var best *lbswitch.Switch
	for _, sw := range f.Switches() {
		if sw.NumVIPs() >= sw.Limits.MaxVIPs {
			continue
		}
		if best == nil || sw.NumVIPs() < best.NumVIPs() {
			best = sw
		}
	}
	return best
}
