package requests

import (
	"fmt"
	"testing"
	"time"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/metrics"
	"megadc/internal/workload"
)

// BenchmarkRequestArrival times the request path per request at 1K and
// 10K LB switches, in the per-switch shape of the bench's requests
// workload: one app per switch with two quarter-core instances, each
// switch serving 0.5/0.15 ≈ 3.3 req/s and receiving 2 req/s (load 0.6).
// One iteration is one simulated second, after a warm-up that attaches
// every queue; the ns/req metric is what the per-request cost across
// switch counts is tracked by.
func BenchmarkRequestArrival(b *testing.B) {
	for _, switches := range []int{1000, 10000} {
		b.Run(fmt.Sprintf("switches=%d", switches), func(b *testing.B) {
			spec := core.ScaleSpec{
				Servers:         max(switches/2, 32),
				Apps:            switches,
				InstancesPerApp: 2,
				VIPsPerApp:      1,
				Seed:            1,
				Demand:          core.Demand{CPU: 1, Mbps: 2},
				Slice:           cluster.Resources{CPU: 0.25, MemMB: 64, NetMbps: 5},
			}
			topo := spec.Topology()
			topo.Switches = switches
			topo.SwitchPods = (switches + 31) / 32
			cfg := core.DefaultConfig()
			cfg.VIPsPerApp = spec.VIPsPerApp
			cfg.PropagateFullEvery = -1
			p, err := core.NewPlatform(topo, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := p.OnboardAppsBulk(spec); err != nil {
				b.Fatal(err)
			}
			rcfg := DefaultConfig()
			rcfg.Profile = workload.Constant(2 * float64(switches))
			rcfg.CPUPerRequest = 0.15
			rcfg.Population = 4
			rcfg.Registry = metrics.NewRegistry()
			e, err := New(p, rcfg)
			if err != nil {
				b.Fatal(err)
			}
			for a := 0; a < spec.Apps; a++ {
				if err := e.AddApp(cluster.AppID(a), 1); err != nil {
					b.Fatal(err)
				}
			}
			if err := e.Start(); err != nil {
				b.Fatal(err)
			}
			p.Eng.RunFor(10) // attach the queues, grow the rings and the heap

			before := e.Stats().Generated
			b.ResetTimer()
			start := time.Now()
			for i := 0; i < b.N; i++ {
				p.Eng.RunFor(1)
			}
			elapsed := time.Since(start)
			if n := e.Stats().Generated - before; n > 0 {
				b.ReportMetric(float64(elapsed.Nanoseconds())/float64(n), "ns/req")
			}
		})
	}
}
