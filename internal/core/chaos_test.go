package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"megadc/internal/cluster"
	"megadc/internal/ctrlplane"
	"megadc/internal/lbswitch"
	"megadc/internal/netmodel"
)

// TestPropertyChaos runs random event sequences — demand changes,
// deploys, removals, exposure flips, VIP transfers, component
// failures, repairs, delayed detections, link flaps, and control-plane
// message faults (dropped, duplicated, and delayed control messages,
// pod partitions and heals) — against a platform with all control
// loops running over a fallible message bus, and checks that every
// invariant holds after every event, that the platform never panics,
// and that the invariants still hold after everything is repaired.
// This is the repository's failure-injection umbrella test.
func TestPropertyChaos(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		topo := SmallTopology()
		topo.Seed = seed
		cfg := DefaultConfig()
		cfg.VIPsPerApp = 2
		// Cross-check every incremental Propagate against a full
		// recompute: any bitwise divergence panics the run.
		cfg.PropagateDebugCheck = true
		// Run the conservation-law auditor on every Propagate; any
		// accumulated violation fails the run below.
		cfg.AuditEvery = 1
		// Route control decisions over the fallible bus with a small
		// delivery delay, so message faults below have a window to hit.
		cfg.Ctrl.Enable = true
		cfg.Ctrl.Default = ctrlplane.LinkConfig{Delay: 0.5}
		p, err := NewPlatform(topo, cfg)
		if err != nil {
			return false
		}
		defer p.Close()
		rng := rand.New(rand.NewSource(seed))
		var apps []cluster.AppID
		for i := 0; i < 4; i++ {
			a, err := p.OnboardApp("chaos", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
				3, Demand{CPU: 2, Mbps: 50})
			if err != nil {
				return false
			}
			apps = append(apps, a.ID)
		}
		p.Start()
		for _, op := range ops {
			p.Eng.RunFor(15)
			app := apps[rng.Intn(len(apps))]
			switch op % 16 {
			case 0: // demand spike
				p.SetAppDemand(app, Demand{CPU: rng.Float64() * 30, Mbps: rng.Float64() * 400})
			case 1: // demand drop
				p.SetAppDemand(app, Demand{CPU: rng.Float64(), Mbps: rng.Float64() * 10})
			case 2: // manual deploy
				pods := p.Cluster.PodIDs()
				p.DeployInstance(app, pods[rng.Intn(len(pods))])
			case 3: // manual removal (keep at least one instance)
				a := p.Cluster.App(app)
				if a != nil && a.NumInstances() > 1 {
					vms := a.VMIDs()
					p.RemoveInstance(vms[rng.Intn(len(vms))])
				}
			case 4: // exposure flip
				vips := p.DNS.VIPs(app)
				if len(vips) > 0 {
					p.DNS.SetWeight(app, vips[rng.Intn(len(vips))], rng.Float64()*2)
					p.Propagate()
				}
			case 5: // manual forced VIP transfer
				vips := p.Fabric.VIPsOfApp(app)
				if len(vips) > 0 {
					dst := lbswitch.SwitchID(rng.Intn(topo.Switches))
					p.Fabric.TransferVIP(vips[rng.Intn(len(vips))], dst, true)
					p.Propagate()
				}
			case 6: // server failure (spare the last serving server)
				ids := p.Cluster.ServerIDs()
				serving := 0
				for _, id := range ids {
					if p.Cluster.Server(id).Serving() {
						serving++
					}
				}
				victim := ids[rng.Intn(len(ids))]
				if srv := p.Cluster.Server(victim); srv != nil && srv.Serving() && serving > 2 {
					p.FailServer(victim)
				}
			case 7: // switch failure (keep at least two serving)
				alive := 0
				for _, sw := range p.Fabric.Switches() {
					if sw.Serving() {
						alive++
					}
				}
				if alive > 2 {
					id := lbswitch.SwitchID(rng.Intn(topo.Switches))
					if p.Fabric.Switch(id).Serving() {
						p.FailSwitch(id)
					}
				}
			case 8: // link failure (keep at least two serving)
				alive := 0
				for _, l := range p.Net.Links() {
					if l.Serving() {
						alive++
					}
				}
				if alive > 2 {
					id := netmodel.LinkID(rng.Intn(topo.ISPs * topo.LinksPerISP))
					if p.Net.Link(id).Serving() {
						p.FailLink(id)
					}
				}
			case 9: // repair everything that has failed
				for _, id := range p.Cluster.ServerIDs() {
					if !p.Cluster.Server(id).Serving() {
						p.RepairServer(id)
					}
				}
				for _, sw := range p.Fabric.Switches() {
					if !sw.Serving() {
						p.RepairSwitch(sw.ID)
					}
				}
				for _, l := range p.Net.Links() {
					if !l.Serving() {
						p.RepairLink(l.ID)
					}
				}
			case 10: // silent server fault with delayed detection
				ids := p.Cluster.ServerIDs()
				serving := 0
				for _, id := range ids {
					if p.Cluster.Server(id).Serving() {
						serving++
					}
				}
				victim := ids[rng.Intn(len(ids))]
				if srv := p.Cluster.Server(victim); srv != nil && srv.Serving() && serving > 2 {
					p.FaultServer(victim)
					p.Eng.After(10, func() { p.DetectServer(victim) })
				}
			case 11: // link flap: down then back up before detection
				alive := 0
				for _, l := range p.Net.Links() {
					if l.Serving() {
						alive++
					}
				}
				if alive > 2 {
					id := netmodel.LinkID(rng.Intn(topo.ISPs * topo.LinksPerISP))
					if p.Net.Link(id).Serving() {
						p.FaultLink(id)
						p.Eng.After(5, func() { p.RepairLink(id) })
					}
				}
			case 12: // drop the next control message (retries recover it)
				p.Ctrl().DropNext++
			case 13: // duplicate the next control message (dedup absorbs it)
				p.Ctrl().DupNext++
			case 14: // delay the next control message well past its timeout
				p.Ctrl().DelayNext = 30
			case 15: // toggle a control-plane partition on a random pod
				pod := ctrlplane.Pod(rng.Intn(topo.Pods))
				switch {
				case p.Ctrl().Partitioned(pod):
					p.Ctrl().Heal(pod)
				case p.Ctrl().ConnectedPods(topo.Pods) > 1:
					p.Ctrl().Partition(pod)
				}
			}
			if err := p.AuditErr(); err != nil {
				t.Logf("invariant after op %d: %v", op%16, err)
				return false
			}
			if rep := p.Audit(); !rep.OK() {
				t.Logf("audit after op %d: %v", op%16, rep.Err())
				return false
			}
		}
		// Heal every control-plane partition (triggering deferred-op
		// reconciliation), repair every outstanding failure, let the
		// loops settle, and check that the platform converges back to a
		// healthy state.
		for i := 0; i < topo.Pods; i++ {
			if p.Ctrl().Partitioned(ctrlplane.Pod(i)) {
				p.Ctrl().Heal(ctrlplane.Pod(i))
			}
		}
		for _, id := range p.Cluster.ServerIDs() {
			if !p.Cluster.Server(id).Serving() {
				p.RepairServer(id)
			}
		}
		for _, sw := range p.Fabric.Switches() {
			if !sw.Serving() {
				p.RepairSwitch(sw.ID)
			}
		}
		for _, l := range p.Net.Links() {
			if !l.Serving() {
				p.RepairLink(l.ID)
			}
		}
		p.Eng.RunFor(600)
		if err := p.AuditErr(); err != nil {
			t.Logf("audit after settling: %v", err)
			return false
		}
		for _, id := range p.Cluster.ServerIDs() {
			if !p.Cluster.Server(id).Serving() {
				t.Logf("server %d not serving after repair-all", id)
				return false
			}
		}
		return true
	}
	max := 25
	if testing.Short() {
		max = 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: max, Rand: rand.New(rand.NewSource(24))}); err != nil {
		t.Error(err)
	}
}
