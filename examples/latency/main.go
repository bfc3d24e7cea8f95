// Latency: the live-observability walkthrough (DESIGN.md §11). A
// serialized control plane (every switch reconfiguration waits its
// turn in the single slow CSM configuration pipeline) runs under
// component churn with the span layer attached, while an embedded
// observability server exposes the resulting latency histograms. The
// example then scrapes its *own* /metrics endpoint over HTTP — the
// same Prometheus text a real scraper would see — and prints the
// VIP/RIP queue-wait distribution it finds there next to the registry
// values it came from.
//
// The observability stack is a pure observer: the same seed with
// spans and the HTTP server disabled ends in byte-identical state
// (core.TestObservabilityDoesNotPerturb).
//
//	go run ./examples/latency
package main

import (
	"bufio"
	"fmt"
	"io"
	"log"
	"net/http"
	"strings"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/faults"
	"megadc/internal/metrics"
	"megadc/internal/obs"
	"megadc/internal/spans"
	"megadc/internal/workload"
)

func main() {
	const duration = 4000.0

	topo := core.SmallTopology()
	cfg := core.DefaultConfig()
	cfg.SerializeReconfig = true // knobs F and B queue on the CSM pipeline
	reg := metrics.NewRegistry()
	cfg.Spans = spans.New(reg) // lifecycle spans land in reg's histograms

	p, err := core.NewPlatform(topo, cfg)
	if err != nil {
		log.Fatal(err)
	}

	// The same Zipf mix E15 uses: ~55% aggregate load, heavy enough
	// that a churn-killed switch overloads the survivors and forces
	// drain→transfer protocols through the serialized pipeline.
	weights := workload.ZipfWeights(16, 0.9)
	totalCPU := 0.55 * topo.ServerCapacity.CPU * float64(topo.Pods*topo.ServersPerPod)
	linkAgg := topo.LinkMbps * float64(topo.ISPs*topo.LinksPerISP)
	fabricAgg := topo.SwitchLimits.ThroughputMbps * float64(topo.Switches)
	totalMbps := 0.55 * min(linkAgg, fabricAgg)
	for i := 0; i < 16; i++ {
		if _, err := p.OnboardApp("a", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
			3, core.Demand{CPU: totalCPU * weights[i], Mbps: totalMbps * weights[i]}); err != nil {
			log.Fatal(err)
		}
	}
	fc := faults.DefaultConfig()
	fc.Server.MTBF = 1000
	fc.Switch.MTBF = 4000
	fc.Link.MTBF = 3000
	inj := faults.New(p, fc)

	// The live endpoint. Port 0 picks a free port; megadcsim exposes
	// the same server via -http.
	srv, err := obs.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("observability: %s/metrics\n\n", srv.URL())

	publish := func() {
		p.PublishMetrics(reg)
		srv.Publish(reg, obs.Status{
			SimTime:        p.Eng.Now(),
			OpenLifecycles: cfg.Spans.OpenLifecycles(),
		})
	}

	p.Start()
	inj.Start(duration)
	p.Eng.Every(500, 500, func() bool {
		publish()
		fmt.Printf("t=%5.0fs reconfigs=%3d queued=%2d satisfaction=%.3f\n",
			p.Eng.Now(), p.VIPRIP.Processed, p.VIPRIP.Pending(), p.TotalSatisfaction())
		return p.Eng.Now() < duration
	})
	p.Eng.RunUntil(duration)
	publish()

	// Scrape our own endpoint: this is exactly what Prometheus (or
	// `curl`) sees, already aggregated into quantiles.
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nqueue-wait families scraped from /metrics:")
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		if strings.Contains(sc.Text(), "queue_wait") {
			fmt.Println("  " + sc.Text())
		}
	}

	// The same distribution straight from the registry the exposition
	// was rendered from.
	fmt.Println("\nqueue wait by priority class (registry view):")
	for _, class := range []string{"low", "normal", "high"} {
		h := reg.Histogram("viprip.queue_wait." + class)
		if h.Count() == 0 {
			fmt.Printf("  %-8s (no requests)\n", class)
			continue
		}
		fmt.Printf("  %-8s n=%-4d p50=%6.2fs p90=%6.2fs p99=%6.2fs max=%6.2fs\n",
			class, h.Count(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.Max())
	}
	drain := reg.Histogram("drain.start_to_finish")
	fmt.Printf("\ndrains completed: %d (p50=%.1fs p99=%.1fs)\n",
		drain.Count(), drain.Quantile(0.5), drain.Quantile(0.99))

	if err := p.AuditErr(); err != nil {
		log.Fatal("invariant violation: ", err)
	}
	fmt.Println("invariants: ok")
}
