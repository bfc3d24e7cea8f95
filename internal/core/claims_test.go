package core

import (
	"math"
	"math/rand"
	"testing"
	"unsafe"

	"megadc/internal/cluster"
	"megadc/internal/ctrlplane"
	"megadc/internal/lbswitch"
)

// TestNoClaimOutlivesItsAction is the liveness check for actuate's claim
// table: every claim a decision takes is released once its action is
// over, whatever the control plane does to the action's messages. The
// scenario runs the managers over a lossy, duplicating, jittery bus with
// a serialized CSM pipeline, partitions and heals two pods, forces knob-B
// drains (a sticky connection makes the first two transfer attempts fail,
// so the third breaks it), and churns demand so the managers deploy,
// resize, migrate and transfer servers. Once the managers stop deciding,
// the table must be empty after the longest actuation plus a full retry
// window for every message the longest action sends.
func TestNoClaimOutlivesItsAction(t *testing.T) {
	topo := SmallTopology()
	topo.ServersPerPod = 4
	topo.Seed = 18
	cfg := DefaultConfig()
	cfg.VIPsPerApp = 2
	cfg.AuditEvery = 10
	cfg.SerializeReconfig = true
	cfg.Ctrl.Enable = true
	cfg.Ctrl.Default = ctrlplane.LinkConfig{Delay: 0.5, Jitter: 0.3, LossProb: 0.15, DupProb: 0.1}
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	pods := p.Cluster.PodIDs()

	// A hot app packed into pod 0 and a light one spread over pod 1's
	// servers give knob C a recipient and a donor; four ordinary apps
	// give the pod managers VMs to resize and scale out.
	hot, err := p.OnboardApp("hot", defaultSlice(), 0, Demand{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, err := p.DeployInstance(hot.ID, pods[0]); err != nil {
			t.Fatal(err)
		}
	}
	donor, err := p.OnboardApp("donor", defaultSlice(), 0, Demand{})
	if err != nil {
		t.Fatal(err)
	}
	for range p.Cluster.Pod(pods[1]).ServerIDs() {
		if _, err := p.DeployInstance(donor.ID, pods[1]); err != nil {
			t.Fatal(err)
		}
	}
	p.SetAppDemand(donor.ID, Demand{CPU: 1, Mbps: 20})
	apps := []cluster.AppID{hot.ID}
	for i := 0; i < 4; i++ {
		a, err := p.OnboardApp("churn", defaultSlice(), 3, Demand{CPU: 2, Mbps: 50})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a.ID)
	}

	// The managers decide only while deciding is set.
	const window = 1500.0
	deciding := true
	for _, pm := range p.PodManagers() {
		p.Eng.Every(cfg.PodControlInterval, cfg.PodControlInterval, func() bool {
			if deciding {
				pm.Step()
			}
			return deciding
		})
	}
	p.Eng.Every(cfg.GlobalControlInterval, cfg.GlobalControlInterval, func() bool {
		if deciding {
			p.Global.Step()
		}
		return deciding
	})

	// Demand churn: the hot app swings around pod 0's overload point,
	// the others between idle and heavy.
	rng := rand.New(rand.NewSource(topo.Seed))
	p.Eng.Every(5, 40, func() bool {
		p.SetAppDemand(hot.ID, Demand{CPU: 22 + 10*rng.Float64(), Mbps: 100})
		app := apps[1+rng.Intn(len(apps)-1)]
		p.SetAppDemand(app, Demand{CPU: 20 * rng.Float64(), Mbps: 300 * rng.Float64()})
		return p.Eng.Now() < window
	})

	// Forced drains: a sticky connection on a VIP of each churn app, then
	// a drain to the next switch.
	for i, app := range apps[1:] {
		p.Eng.At(100+300*float64(i), func() {
			vip := p.Fabric.VIPsOfApp(app)[0]
			home, ok := p.Fabric.HomeOf(vip)
			if !ok {
				return
			}
			if _, _, _, err := p.Fabric.Switch(home).OpenConn(vip, p.Rand()); err != nil {
				t.Errorf("open sticky connection: %v", err)
				return
			}
			p.Global.startDrainAndTransfer(vip, (home+1)%lbswitch.SwitchID(topo.Switches))
		})
	}

	// Pod partitions, each healed inside the retry window, and a DNS
	// outage that outlasts it, so the third drain's restore and the
	// fourth drain's hide dead-letter.
	for i, at := range []float64{300, 900} {
		pod := ctrlplane.Pod(2 + i)
		p.Eng.At(at, func() { p.Ctrl().Partition(pod) })
		p.Eng.At(at+400, func() { p.Ctrl().Heal(pod) })
	}
	p.Eng.At(775, func() { p.Ctrl().Partition(ctrlplane.DNS) })
	p.Eng.At(2225, func() { p.Ctrl().Heal(ctrlplane.DNS) })

	// Sample the table so the test proves every kind of claim was taken.
	seen := map[claimKind]bool{}
	p.Eng.Every(0.5, 1, func() bool {
		for k := range p.claims.m {
			seen[k.kind] = true
		}
		return deciding
	})

	p.Eng.RunUntil(window)
	deciding = false
	for _, kind := range []claimKind{claimServer, claimDeploy, claimVM, claimDrain} {
		if !seen[kind] {
			t.Errorf("no claim of kind %d was taken; the scenario does not exercise it", kind)
		}
	}
	if len(p.claims.m) == 0 {
		t.Error("no claim in flight when the managers stopped; the check below would be vacuous")
	}

	// The longest action is a drain: the hide, three transfer attempts
	// and the restore are each one control message that may use its full
	// retry window, with the TTL wait, two retry margins and the
	// serialized pipeline's service times in between. Single-step claims
	// end at their actuation latency, the longest of which is vacating a
	// server (bounded by vacating every VM on the platform).
	bus := cfg.Ctrl
	retry := bus.Default.Delay + bus.Default.Jitter
	for n := 0; n <= bus.MaxRetries; n++ {
		retry += bus.RetryTimeout * math.Pow(bus.BackoffFactor, float64(n)) * (1 + bus.RetryJitter)
	}
	// The pipeline serves what is queued now, plus slack for the drain's
	// own three requests and their requeues.
	pipeline := float64(p.VIPRIP.Pending()+16) * cfg.SwitchReconfigLatency
	drain := cfg.DNSUpdateLatency + p.DNS.TTL() + 3*cfg.DrainMargin + 5*retry + pipeline
	vacate := cfg.VacateLatencyPerVM*float64(p.Cluster.NumVMs()) + cfg.VMMigrateLatency
	longest := math.Max(drain, math.Max(vacate, cfg.VMDeployLatency))
	p.Eng.RunFor(longest)

	if n := len(p.claims.m); n != 0 {
		for k, tok := range p.claims.m {
			t.Errorf("claim %+v (token %d) outlived its action", k, tok)
		}
		t.Fatalf("%d claims still held %.0f s after the last decision", n, longest)
	}
	g := p.Global
	if g.DrainForceBreaks == 0 {
		t.Error("no drain was forced")
	}
	if g.ServerTransfers == 0 {
		t.Error("no server was transferred")
	}
	if c := p.Ctrl(); c.Dropped == 0 || c.Duplicates == 0 || c.DeadLetters == 0 {
		t.Errorf("bus dropped %d, duplicated %d and dead-lettered %d messages; want all three",
			c.Dropped, c.Duplicates, c.DeadLetters)
	}
	if err := p.AuditErr(); err != nil {
		t.Errorf("audit: %v", err)
	}
}

// TestClaimKeyPaddingFree pins claimKey's layout: with no padding
// between or after its fields, the claim map hashes a key as one block
// of memory instead of field by field.
func TestClaimKeyPaddingFree(t *testing.T) {
	var k claimKey
	fields := unsafe.Sizeof(k.owner) + unsafe.Sizeof(k.kind) + unsafe.Sizeof(k.id)
	if size := unsafe.Sizeof(k); size != fields {
		t.Fatalf("claimKey is %d bytes, its fields %d: the key has padding", size, fields)
	}
}
