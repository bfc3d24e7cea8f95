package twolayer

import (
	"errors"
	"math"
	"testing"

	"megadc/internal/ipv4"
	"megadc/internal/lbswitch"
)

// mvipWeightsOn snapshots the DD-layer weight vector (parallel to
// MVIPs(app)) of one external VIP.
func mvipWeightsOn(t *testing.T, a *Arch, evip lbswitch.VIP) []float64 {
	t.Helper()
	home, ok := a.DD.HomeOf(evip)
	if !ok {
		t.Fatalf("external VIP %s not homed", evip)
	}
	_, w, err := a.DD.Switch(home).Weights(evip)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

// Regression: the PR 4 viprip bug class — a bad weight discovered
// mid-application left the group partially updated. SetMVIPWeights must
// validate the whole vector before touching any switch, so a rejected
// vector leaves every external VIP's split exactly as it was.
func TestSetMVIPWeightsRejectsWholeVectorAtomically(t *testing.T) {
	a, err := New(2, 2, testLimits())
	if err != nil {
		t.Fatal(err)
	}
	ext, _, err := a.OnboardApp(1, 3, 2)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.SetMVIPWeights(1, []float64{3, 1}); err != nil {
		t.Fatal(err)
	}
	before := make([][]float64, len(ext))
	for i, e := range ext {
		before[i] = mvipWeightsOn(t, a, e)
	}
	for _, bad := range [][]float64{
		{5, -1},           // negative in second column
		{0, 2},            // zero in first column
		{math.NaN(), 1},   // NaN sails past total checks
		{1, math.Inf(1)},  // +Inf
		{math.Inf(-1), 1}, // -Inf
		{-1, math.NaN()},  // multiple offenders
	} {
		err := a.SetMVIPWeights(1, bad)
		if err == nil {
			t.Fatalf("weights %v accepted", bad)
		}
		if !errors.Is(err, ErrBadWeight) {
			t.Errorf("weights %v: err = %v, want ErrBadWeight", bad, err)
		}
		if !errors.Is(err, lbswitch.ErrBadWeight) {
			t.Errorf("weights %v: err = %v, want to match lbswitch.ErrBadWeight too", bad, err)
		}
		for i, e := range ext {
			got := mvipWeightsOn(t, a, e)
			for j := range got {
				if got[j] != before[i][j] {
					t.Fatalf("weights %v partially applied: evip %s column %d = %v, want %v",
						bad, e, j, got[j], before[i][j])
				}
			}
		}
	}
	// A valid vector still applies after all the rejections.
	if err := a.SetMVIPWeights(1, []float64{1, 4}); err != nil {
		t.Fatal(err)
	}
	got := mvipWeightsOn(t, a, ext[0])
	if got[0] != 1 || got[1] != 4 {
		t.Errorf("valid vector not applied: %v", got)
	}
}

// Regression: AddRIP must reject bad weights with the typed error
// before any placement decision, leaving the LB layer untouched.
func TestAddRIPRejectsBadWeight(t *testing.T) {
	a, err := New(1, 2, testLimits())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := a.OnboardApp(1, 1, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := a.AddRIP(1, ipv4.MustParse("10.0.0.1"), 2); err != nil {
		t.Fatal(err)
	}
	ripsBefore := a.LB.NumRIPs()
	for _, bad := range []float64{0, -3, math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := a.AddRIP(1, ipv4.MustParse("10.0.0.2"), bad)
		if err == nil {
			t.Fatalf("weight %v accepted", bad)
		}
		if !errors.Is(err, ErrBadWeight) {
			t.Errorf("weight %v: err = %v, want ErrBadWeight", bad, err)
		}
	}
	if got := a.LB.NumRIPs(); got != ripsBefore {
		t.Errorf("LB layer gained RIPs from rejected adds: %d -> %d", ripsBefore, got)
	}
	// Unknown app still reports ErrUnknownApp, not ErrBadWeight.
	if _, err := a.AddRIP(9, ipv4.MustParse("10.0.0.3"), 1); !errors.Is(err, ErrUnknownApp) {
		t.Errorf("unknown app: err = %v, want ErrUnknownApp", err)
	}
}
