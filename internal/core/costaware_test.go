package core

import (
	"testing"

	"megadc/internal/ipv4"
	"megadc/internal/netmodel"
)

// newCostPlatform builds a platform whose links have different usage
// costs, alternating 3 and 1 per Mbps so each application's VIP pair
// (advertised round-robin on consecutive links) spans both cost tiers.
func newCostPlatform(t *testing.T, cfg Config) *Platform {
	t.Helper()
	p := newTestPlatform(t, cfg)
	for _, l := range p.Net.Links() {
		if int(l.ID)%2 == 0 {
			l.CostPerMbps = 3
		} else {
			l.CostPerMbps = 1
		}
	}
	return p
}

func TestCostAwareExposureReducesCost(t *testing.T) {
	cfg := testConfig().WithKnobs(KnobSelectiveExposure)
	cfg.CostAwareExposure = true
	p := newCostPlatform(t, cfg)
	// Apps with VIPs spread over all links; moderate load.
	for i := 0; i < 4; i++ {
		if _, err := p.OnboardApp("a", defaultSlice(), 2, Demand{CPU: 1, Mbps: 200}); err != nil {
			t.Fatal(err)
		}
	}
	before := p.Net.TotalCost()
	for i := 0; i < 20; i++ {
		p.Global.Step()
		p.Eng.RunFor(cfg.DNSUpdateLatency + 1)
	}
	after := p.Net.TotalCost()
	if after >= before {
		t.Errorf("cost did not drop: %v -> %v", before, after)
	}
	// No link pushed past the ceiling.
	for _, l := range p.Net.Links() {
		if l.Utilization() > cfg.CostShiftCeiling+0.05 {
			t.Errorf("link %d above ceiling: %v", l.ID, l.Utilization())
		}
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}

func TestCostAwareYieldsToOverload(t *testing.T) {
	cfg := testConfig().WithKnobs(KnobSelectiveExposure)
	cfg.CostAwareExposure = true
	p := newCostPlatform(t, cfg)
	app, err := p.OnboardApp("a", defaultSlice(), 4, Demand{CPU: 1, Mbps: 1100})
	if err != nil {
		t.Fatal(err)
	}
	// Concentrate on one VIP to overload its link: balancing must win
	// over economizing (no cost shift while a link is overloaded).
	vips := p.DNS.VIPs(app.ID)
	p.DNS.ExposeOnly(app.ID, vips[0])
	p.Propagate()
	if len(p.Net.OverloadedLinks(cfg.LinkOverloadUtil)) == 0 {
		t.Fatal("setup: no overloaded link")
	}
	for i := 0; i < 10; i++ {
		p.Global.Step()
		p.Eng.RunFor(cfg.DNSUpdateLatency + 1)
	}
	if got := len(p.Net.OverloadedLinks(1.0)); got != 0 {
		t.Errorf("%d links still above 100%%", got)
	}
}

func TestRecycleUnusedVIPs(t *testing.T) {
	cfg := testConfig().WithKnobs(KnobSelectiveExposure)
	cfg.RecycleUnusedVIPs = true
	p := newTestPlatform(t, cfg)
	app, err := p.OnboardApp("a", defaultSlice(), 2, Demand{CPU: 1, Mbps: 300})
	if err != nil {
		t.Fatal(err)
	}
	// Hide one VIP: it becomes "unused" (no exposure, no traffic).
	vips := p.DNS.VIPs(app.ID)
	p.DNS.SetWeight(app.ID, vips[0], 0)
	p.Propagate()
	oldLinks := p.Net.ActiveLinks(p.handleOf(vips[0]))
	if len(oldLinks) != 1 {
		t.Fatal("setup: VIP not advertised once")
	}
	// Load the unused VIP's current link with synthetic traffic so it is
	// definitely not the least-loaded link and recycling must move it.
	// The synthetic VIP is placed with the reconfiguration hook
	// detached, so the platform neither owns nor audits it.
	sw := p.Fabric.Switch(0)
	hook := sw.OnReconfig
	sw.OnReconfig = nil
	if err := p.Fabric.PlaceVIP(ipv4.MustParse("192.0.2.99"), 999, sw.ID); err != nil {
		t.Fatal(err)
	}
	sw.OnReconfig = hook
	synth := p.handleOf(ipv4.MustParse("192.0.2.99"))
	if err := p.Net.Advertise(synth, oldLinks[0], false); err != nil {
		t.Fatal(err)
	}
	p.Net.SetVIPTraffic(synth, 500)
	p.Global.Step()
	p.Eng.RunFor(5)
	if p.Global.VIPRecycles == 0 {
		t.Fatal("unused VIP not recycled")
	}
	newLinks := p.Net.ActiveLinks(p.handleOf(vips[0]))
	if len(newLinks) != 1 {
		t.Fatalf("recycled VIP advertised %d times", len(newLinks))
	}
	// Re-exposing the VIP later works and traffic lands on the new link.
	p.DNS.SetWeight(app.ID, vips[0], 1)
	p.Propagate()
	if p.Net.Link(newLinks[0]).LoadMbps() <= 0 {
		t.Error("re-exposed VIP carries nothing on its recycled link")
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}

func TestRecycleSkipsSuppressedAndUsed(t *testing.T) {
	cfg := testConfig().WithKnobs(KnobSelectiveExposure)
	cfg.RecycleUnusedVIPs = true
	p := newTestPlatform(t, cfg)
	app, _ := p.OnboardApp("a", defaultSlice(), 2, Demand{CPU: 1, Mbps: 300})
	vips := p.DNS.VIPs(app.ID)
	// VIPs under a drain claim are left alone even at weight 0.
	p.DNS.SetWeight(app.ID, vips[0], 0)
	p.claims.claim(drainClaim(p.handleOf(vips[0])))
	p.Propagate()
	before := p.Net.ActiveLinks(p.handleOf(vips[0]))
	recycles := p.Global.VIPRecycles
	p.Global.Step()
	p.Eng.RunFor(5)
	if p.Global.VIPRecycles != recycles {
		t.Error("suppressed VIP recycled")
	}
	after := p.Net.ActiveLinks(p.handleOf(vips[0]))
	if len(before) != len(after) || before[0] != after[0] {
		t.Error("suppressed VIP moved")
	}
	_ = netmodel.LinkID(0)
}
