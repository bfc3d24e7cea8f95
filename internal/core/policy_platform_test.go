package core

import (
	"testing"

	"megadc/internal/policy"
)

// TestPolicyChaosAuditClean runs the seeded chaos scenario — demand
// swings, deploys, removals, exposure flips, forced transfers,
// fault/detect/repair cycles, link flaps, session churn — once per
// registered policy with the auditor in its strictest mode
// (AuditEvery 1: all five invariant families I1–I5 after every single
// Propagate). Every policy must keep every conservation law intact
// under chaos, and two identically-seeded runs must end bit-identical:
// policies may not consume platform randomness or depend on map order.
func TestPolicyChaosAuditClean(t *testing.T) {
	const nOps = 60
	for _, name := range policy.Names() {
		t.Run(name, func(t *testing.T) {
			run := func() *Platform {
				cfg := DefaultConfig()
				cfg.Policy = name
				cfg.AuditEvery = 1
				return runPropagationScenario(t, cfg, nOps)
			}
			a := run()
			if err := a.AuditErr(); err != nil {
				t.Fatalf("audit: %v", err)
			}
			b := run()
			if d := a.captureState().diff(b.captureState()); d != "" {
				t.Fatalf("two identically-seeded runs diverged: %s", d)
			}
			if sa, sb := a.TotalSatisfaction(), b.TotalSatisfaction(); sa != sb {
				t.Fatalf("satisfaction differs across identical runs: %v != %v", sa, sb)
			}
			if a.Policy().Stats.Probes != b.Policy().Stats.Probes {
				t.Fatalf("probe counts differ across identical runs: %d != %d",
					a.Policy().Stats.Probes, b.Policy().Stats.Probes)
			}
		})
	}
}

// TestPolicyUnknownNameFails pins the config contract: an unregistered
// policy name must fail platform construction, not silently fall back.
func TestPolicyUnknownNameFails(t *testing.T) {
	topo := SmallTopology()
	cfg := DefaultConfig()
	cfg.Policy = "no-such-policy"
	if _, err := NewPlatform(topo, cfg); err == nil {
		t.Fatal("NewPlatform accepted an unknown policy name")
	}
}
