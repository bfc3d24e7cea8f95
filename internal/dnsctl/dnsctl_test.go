package dnsctl

import (
	"errors"
	"math"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
	"unsafe"

	"megadc/internal/ids"
	"megadc/internal/ipv4"
)

// testVIPs names the tests' VIPs: a VIP's handle is its index here.
var testVIPs = []string{"v1", "v2", "a", "b", "c", "old", "new"}

func hOf(vip string) ids.Index { return ids.Index(slices.Index(testVIPs, vip)) }

// TestVIPsLexicalOrder: VIPs lists an app's addresses in the lexical
// order of their dotted quads, not numeric order.
func TestVIPsLexicalOrder(t *testing.T) {
	d := New(30)
	nine, ten := ipv4.MustParse("10.0.0.9"), ipv4.MustParse("10.0.0.10")
	d.Register(1, nine, 0, 1)
	d.Register(1, ten, 1, 1)
	if got, want := d.VIPs(1), []ipv4.Addr{ten, nine}; !slices.Equal(got, want) {
		t.Errorf("VIPs = %v, want %v", got, want)
	}
}

func TestNewTTLValidation(t *testing.T) {
	for _, ttl := range []float64{0, -1, math.NaN(), math.Inf(1), math.Inf(-1)} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("New(%v) did not panic", ttl)
				}
			}()
			New(ttl)
		}()
	}
}

func TestRegisterResolve(t *testing.T) {
	d := New(60)
	if d.TTL() != 60 {
		t.Errorf("TTL = %v", d.TTL())
	}
	if err := d.Register(1, ipV1, hOf("v1"), 1); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(1, ipV1, hOf("v1"), 1); !errors.Is(err, ErrDupVIP) {
		t.Errorf("dup err = %v", err)
	}
	if err := d.Register(1, ipV2, hOf("v2"), -1); err == nil {
		t.Error("negative weight accepted")
	}
	rng := rand.New(rand.NewSource(1))
	vip, err := d.Resolve(1, rng)
	if err != nil || vip != hOf("v1") {
		t.Errorf("Resolve = %d,%v", vip, err)
	}
	if _, err := d.Resolve(99, rng); !errors.Is(err, ErrNoApp) {
		t.Errorf("missing app err = %v", err)
	}
	if d.Resolutions != 1 {
		t.Errorf("Resolutions = %d", d.Resolutions)
	}
}

func TestResolveWeighted(t *testing.T) {
	d := New(60)
	d.Register(1, ipA, hOf("a"), 1)
	d.Register(1, ipB, hOf("b"), 3)
	rng := rand.New(rand.NewSource(2))
	counts := map[ids.Index]int{}
	const n = 40000
	for i := 0; i < n; i++ {
		vip, err := d.Resolve(1, rng)
		if err != nil {
			t.Fatal(err)
		}
		counts[vip]++
	}
	if frac := float64(counts[hOf("b")]) / n; math.Abs(frac-0.75) > 0.02 {
		t.Errorf("b fraction = %v, want ≈0.75", frac)
	}
}

func TestZeroWeightHidden(t *testing.T) {
	d := New(60)
	d.Register(1, ipA, hOf("a"), 1)
	d.Register(1, ipB, hOf("b"), 0)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 100; i++ {
		vip, err := d.Resolve(1, rng)
		if err != nil {
			t.Fatal(err)
		}
		if vip == hOf("b") {
			t.Fatal("zero-weight VIP resolved")
		}
	}
	// Hiding everything yields ErrNoExposed.
	d.SetWeight(1, ipA, 0)
	if _, err := d.Resolve(1, rng); !errors.Is(err, ErrNoExposed) {
		t.Errorf("all-hidden err = %v", err)
	}
}

func TestSetWeightAndChanges(t *testing.T) {
	d := New(60)
	d.Register(1, ipA, hOf("a"), 1)
	if err := d.SetWeight(1, ipA, 2); err != nil {
		t.Fatal(err)
	}
	if d.WeightChanges != 1 {
		t.Errorf("WeightChanges = %d", d.WeightChanges)
	}
	// No-op change is not counted.
	d.SetWeight(1, ipA, 2)
	if d.WeightChanges != 1 {
		t.Errorf("no-op counted: %d", d.WeightChanges)
	}
	if err := d.SetWeight(1, ipZzz, 1); !errors.Is(err, ErrNoVIP) {
		t.Errorf("missing vip err = %v", err)
	}
	if err := d.SetWeight(9, ipA, 1); !errors.Is(err, ErrNoApp) {
		t.Errorf("missing app err = %v", err)
	}
	if err := d.SetWeight(1, ipA, -1); err == nil {
		t.Error("negative weight accepted")
	}
}

func TestExposeOnly(t *testing.T) {
	d := New(60)
	d.Register(1, ipA, hOf("a"), 1)
	d.Register(1, ipB, hOf("b"), 1)
	d.Register(1, ipC, hOf("c"), 0)
	if err := d.ExposeOnly(1, ipC); err != nil {
		t.Fatal(err)
	}
	_, ws, _ := d.Weights(1)
	if ws[0] != 0 || ws[1] != 0 || ws[2] != 1 {
		t.Errorf("weights = %v", ws)
	}
	if err := d.ExposeOnly(1, ipNope); !errors.Is(err, ErrNoVIP) {
		t.Errorf("unknown vip err = %v", err)
	}
	if err := d.ExposeOnly(42, ipA); !errors.Is(err, ErrNoApp) {
		t.Errorf("unknown app err = %v", err)
	}
}

func TestUnregister(t *testing.T) {
	d := New(60)
	d.Register(1, ipA, hOf("a"), 1)
	if err := d.Unregister(1, ipA); err != nil {
		t.Fatal(err)
	}
	if err := d.Unregister(1, ipA); !errors.Is(err, ErrNoVIP) {
		t.Errorf("double unregister err = %v", err)
	}
	if err := d.Unregister(9, ipA); !errors.Is(err, ErrNoApp) {
		t.Errorf("missing app err = %v", err)
	}
	if got := d.VIPs(1); len(got) != 0 {
		t.Errorf("VIPs = %v", got)
	}
	if got := d.VIPs(9); got != nil {
		t.Errorf("missing app VIPs = %v", got)
	}
}

func TestApps(t *testing.T) {
	d := New(60)
	if got := d.Apps(); len(got) != 0 {
		t.Errorf("empty Apps = %v", got)
	}
	d.Register(3, ipA, hOf("a"), 1)
	d.Register(1, ipB, hOf("b"), 1)
	d.Register(2, ipC, hOf("c"), 1)
	got := d.Apps()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("Apps = %v, want sorted [1 2 3]", got)
	}
}

func TestExpectedShares(t *testing.T) {
	d := New(60)
	d.Register(1, ipA, hOf("a"), 1)
	d.Register(1, ipB, hOf("b"), 3)
	vips, shares, err := d.ExpectedShares(1)
	if err != nil {
		t.Fatal(err)
	}
	if vips[0] != hOf("a") || shares[0] != 0.25 || shares[1] != 0.75 {
		t.Errorf("shares = %v %v", vips, shares)
	}
	d.SetWeight(1, ipA, 0)
	d.SetWeight(1, ipB, 0)
	_, shares, _ = d.ExpectedShares(1)
	if shares[0] != 0 || shares[1] != 0 {
		t.Errorf("all-zero shares = %v", shares)
	}
	if _, _, err := d.ExpectedShares(5); !errors.Is(err, ErrNoApp) {
		t.Errorf("missing app err = %v", err)
	}
	// The in-place view reads the same shares and allocates nothing; an
	// app without a record reads as one with no VIPs.
	d.SetWeight(1, ipB, 2)
	x := d.Exposures(1)
	if x.Len() != 2 || x.Handle(1) != hOf("b") || x.Share(0, x.Total()) != 0 || x.Share(1, x.Total()) != 1 {
		t.Errorf("Exposures = len %d, shares %v %v", x.Len(), x.Share(0, x.Total()), x.Share(1, x.Total()))
	}
	if d.Exposures(5).Len() != 0 || d.Exposures(-1).Len() != 0 {
		t.Error("an app without a record has exposures")
	}
	if n := testing.AllocsPerRun(100, func() { x := d.Exposures(1); _ = x.Share(1, x.Total()) }); n != 0 {
		t.Errorf("Exposures allocates %v times", n)
	}
}

func TestClientPopulationCaching(t *testing.T) {
	d := New(10)
	d.Register(1, ipOld, hOf("old"), 1)
	rng := rand.New(rand.NewSource(4))
	p, err := NewClientPopulation(d, 1, 500, 0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	// Warm every cache at t=0.
	for i := 0; i < 5000; i++ {
		if _, err := p.Arrive(0, rng); err != nil {
			t.Fatal(err)
		}
	}
	if got := p.UsingVIP(hOf("old"), 1); got < 0.99 {
		t.Fatalf("warm fraction = %v", got)
	}
	// Switch exposure to a new VIP.
	d.Register(1, ipNew, hOf("new"), 1)
	d.ExposeOnly(1, ipNew)
	// Before TTL expiry, cached clients still go to old.
	for i := 0; i < 2000; i++ {
		vip, _ := p.Arrive(5, rng)
		if vip != hOf("old") {
			t.Fatal("client re-resolved before TTL expiry")
		}
	}
	// After TTL expiry, arrivals re-resolve to new.
	for i := 0; i < 2000; i++ {
		vip, _ := p.Arrive(11, rng)
		if vip != hOf("new") {
			t.Fatal("client used stale entry past TTL with no violators")
		}
	}
}

func TestClientPopulationViolators(t *testing.T) {
	d := New(10)
	d.Register(1, ipOld, hOf("old"), 1)
	rng := rand.New(rand.NewSource(5))
	p, err := NewClientPopulation(d, 1, 2000, 0.3, 100, rng)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20000; i++ {
		p.Arrive(0, rng)
	}
	d.Register(1, ipNew, hOf("new"), 1)
	d.ExposeOnly(1, ipNew)
	// At t=15 (past TTL=10, within violation hold), only violators
	// should still hit old.
	oldCount, n := 0, 20000
	for i := 0; i < n; i++ {
		vip, _ := p.Arrive(15, rng)
		if vip == hOf("old") {
			oldCount++
		}
	}
	frac := float64(oldCount) / float64(n)
	if math.Abs(frac-0.3) > 0.05 {
		t.Errorf("stale fraction = %v, want ≈0.30 (the violator fraction)", frac)
	}
	if p.ViolatorFraction() != 0.3 || p.Size() != 2000 {
		t.Error("accessors wrong")
	}
}

// TestClientCacheSize pins the arrival path's per-client entry at 16
// bytes: each arrival touches one random entry, so its width sets how
// many clients share a cache line.
func TestClientCacheSize(t *testing.T) {
	if n := unsafe.Sizeof(clientCache{}); n != 16 {
		t.Fatalf("clientCache is %d bytes, want 16", n)
	}
}

func TestClientPopulationValidation(t *testing.T) {
	d := New(10)
	rng := rand.New(rand.NewSource(6))
	if _, err := NewClientPopulation(d, 1, 0, 0, 0, rng); err == nil {
		t.Error("zero population accepted")
	}
	if _, err := NewClientPopulation(d, 1, 10, 1.5, 0, rng); err == nil {
		t.Error("violator fraction > 1 accepted")
	}
	if _, err := NewClientPopulation(d, 1, 10, 0.5, -1, rng); err == nil {
		t.Error("negative hold accepted")
	}
	// Arrive with unregistered app surfaces the DNS error.
	p, _ := NewClientPopulation(d, 1, 10, 0, 0, rng)
	if _, err := p.Arrive(0, rng); !errors.Is(err, ErrNoApp) {
		t.Errorf("err = %v", err)
	}
}

// Property: Resolve only ever returns registered, positively weighted
// VIPs, regardless of the weight configuration.
func TestPropertyResolveRespectsWeights(t *testing.T) {
	f := func(weights []uint8, seed int64) bool {
		if len(weights) == 0 {
			return true
		}
		if len(weights) > 12 {
			weights = weights[:12]
		}
		d := New(30)
		exposed := make(map[ids.Index]bool)
		for i, w := range weights {
			d.Register(1, ipv4.MustParse("203.0.113.1")+ipv4.Addr(i), ids.Index(i), float64(w))
			if w > 0 {
				exposed[ids.Index(i)] = true
			}
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 200; i++ {
			vip, err := d.Resolve(1, rng)
			if err != nil {
				return len(exposed) == 0 && errors.Is(err, ErrNoExposed)
			}
			if !exposed[vip] {
				t.Logf("resolved hidden VIP %d", vip)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150, Rand: rand.New(rand.NewSource(9))}); err != nil {
		t.Error(err)
	}
}
