// Degraded: a walkthrough of the fallible asynchronous control plane
// (DESIGN.md §12). Control decisions ride a message bus with per-link
// delay, jitter, and loss; every call carries an idempotency key and a
// deadline, retries with exponential backoff, and dead-letters when the
// cap is exhausted. Mid-run, one pod's control link partitions: the
// pod manager keeps serving on its last-acknowledged state, keeps its
// pod-local knobs (VM resize, defragmentation) running, and defers
// CSM-bound decisions — weight adjustments, scale-outs — as intents.
// When the partition heals, the bus's heal hook triggers
// reconciliation: still-valid intents are replayed against fresh
// state, stale ones are dropped. The run ends with a conservation-law
// audit and zero dead letters: the default backoff window outlasts the
// partition, so at-least-once delivery converges.
//
//	go run ./examples/degraded
package main

import (
	"fmt"
	"log"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/ctrlplane"
	"megadc/internal/workload"
)

func main() {
	const duration = 2400.0

	topo := core.SmallTopology()
	topo.Seed = 11
	cfg := core.DefaultConfig()
	cfg.AuditEvery = 25
	// The fallible control plane: 2 s mean one-way delay with jitter, 5%
	// message loss, and the global manager steering from pod snapshots
	// refreshed every 30 s instead of live utilization reads.
	cfg.Ctrl.Enable = true
	cfg.Ctrl.Default = ctrlplane.LinkConfig{Delay: 2, Jitter: 0.5, LossProb: 0.05}
	cfg.Ctrl.SnapshotEvery = 30
	p, err := core.NewPlatform(topo, cfg)
	if err != nil {
		log.Fatal(err)
	}

	slice := cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}
	var apps []cluster.AppID
	for i := 0; i < 8; i++ {
		a, err := p.OnboardApp(fmt.Sprintf("app-%d", i), slice, 3, core.Demand{})
		if err != nil {
			log.Fatal(err)
		}
		apps = append(apps, a.ID)
		// Uneven per-app load with a surge on the first two apps, so pod
		// managers want weight shifts and scale-outs during the partition.
		profile := workload.Profile(workload.Constant(1))
		if i < 2 {
			profile = workload.FlashCrowd{Base: 1, Peak: 6, Start: 700, Ramp: 200, Hold: 600}
		}
		p.DriveDemand(a.ID, profile, core.Demand{CPU: 9 - 0.5*float64(i), Mbps: 160}, 40, duration)
	}
	p.Start()

	pod := ctrlplane.Pod(0)
	p.Eng.At(600, func() {
		p.Ctrl().Partition(pod)
		fmt.Printf("t=%5.0fs  PARTITION pod 0: control messages to/from it now drop\n", p.Eng.Now())
	})
	report := func(label string) {
		pm := p.PodManagers()[0]
		fmt.Printf("t=%5.0fs  %-10s satisfaction=%.3f deferred=%d reconciled=%d dropped_stale=%d dead_letters=%d\n",
			p.Eng.Now(), label, p.TotalSatisfaction(),
			pm.Deferred, pm.Reconciled, pm.DroppedStale, p.Ctrl().DeadLetters)
	}
	p.Eng.At(599, func() { report("healthy") })
	p.Eng.At(1000, func() { report("degraded") })
	p.Eng.At(1200, func() {
		p.Ctrl().Heal(pod)
		fmt.Printf("t=%5.0fs  HEAL pod 0: deferred intents reconcile against fresh state\n", p.Eng.Now())
	})
	p.Eng.At(1201, func() { report("healed") })
	p.Eng.RunUntil(duration)
	report("final")

	b := p.Ctrl()
	fmt.Printf("\nbus: %d calls + %d casts, %d delivered, %d retries, %d dropped, %d deduped, %d dead letters\n",
		b.Sent, b.Casts, b.Delivered, b.Retries, b.Dropped, b.Deduped, b.DeadLetters)
	fmt.Printf("dns: %d weight changes, %d stale writes rejected by the generation guard\n",
		p.DNS.WeightChanges, p.DNS.StaleWrites)
	if err := p.AuditErr(); err != nil {
		log.Fatal("audit: ", err)
	}
	fmt.Println("audit + invariants: ok")
}
