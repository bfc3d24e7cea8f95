// Requests: the request-level latency walkthrough (DESIGN.md §14). An
// open-loop request engine drives a flash crowd of discrete requests —
// Zipf app popularity, DNS resolution with TTL violators, per-switch
// bounded FIFO queues whose service rate derives from healthy backend
// capacity — while server churn eats backends out from under the
// queues. Per-request end-to-end latency (queue wait + service) lands
// in per-app histograms, which the example exports over a live /metrics
// endpoint and then scrapes back over HTTP, printing the request-latency
// families exactly as Prometheus would see them.
//
// The request engine draws from its own seeded RNG, so attaching it
// never perturbs the platform's main random stream
// (requests.TestEnablingRequestsDoesNotPerturbPlatform).
//
//	go run ./examples/requests
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
	"megadc/internal/requests"
	"megadc/internal/workload"
)

func main() {
	const duration = 1200.0
	const apps = 8
	const instancesPerApp = 4
	const cpuPerRequest = 0.02 // 20 ms of backend CPU per request

	topo := core.SmallTopology()
	p, err := core.NewPlatform(topo, core.DefaultConfig())
	if err != nil {
		log.Fatal(err)
	}
	appIDs := make([]cluster.AppID, 0, apps)
	for i := 0; i < apps; i++ {
		a, err := p.OnboardApp(fmt.Sprintf("app-%d", i),
			cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
			instancesPerApp, core.Demand{})
		if err != nil {
			log.Fatal(err)
		}
		appIDs = append(appIDs, a.ID)
	}

	// Aggregate derived service capacity: 8 apps × 4 one-core instances
	// at 20 ms/request = 1600 req/s. The flash crowd ramps from a calm
	// 40% to a saturating 95% of it, so the p99 climbs while the median
	// barely moves — the tail behavior fluid models can't show.
	capacity := float64(apps*instancesPerApp) / cpuPerRequest
	profile := workload.FlashCrowd{
		Base:  0.40 * capacity,
		Peak:  0.95 * capacity,
		Start: duration * 0.25,
		Ramp:  duration * 0.05,
		Hold:  duration * 0.30,
	}
	if err := profile.Validate(); err != nil {
		log.Fatal(err)
	}

	reg := metrics.NewRegistry()
	rcfg := requests.DefaultConfig()
	rcfg.Profile = profile
	rcfg.CPUPerRequest = cpuPerRequest
	rcfg.QueueCap = 500
	rcfg.Registry = reg
	rcfg.StopAt = duration
	eng, err := requests.New(p, rcfg)
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.AddAppsZipf(appIDs, 1.0); err != nil {
		log.Fatal(err)
	}

	// Server churn: backends fail and are redeployed while the crowd is
	// in flight, so switch queues periodically lose derived capacity.
	fc := faults.DefaultConfig()
	fc.Server.MTBF = 1500
	fc.Switch.MTBF = 0
	fc.Link.MTBF = 0
	inj := faults.New(p, fc)

	srv, err := obs.Start("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	fmt.Printf("observability: %s/metrics\n\n", srv.URL())

	latAll := reg.Histogram("requests.latency.all")
	publish := func() {
		p.PublishMetrics(reg)
		srv.Publish(reg, obs.Status{SimTime: p.Eng.Now()})
	}

	p.Start()
	if err := eng.Start(); err != nil {
		log.Fatal(err)
	}
	inj.Start(duration)
	p.Eng.Every(150, 150, func() bool {
		publish()
		st := eng.Stats()
		fmt.Printf("t=%5.0fs λ=%4.0f req/s served=%7d dropped=%5d pending=%3d p50=%.4fs p99=%.4fs\n",
			p.Eng.Now(), profile.RateAt(p.Eng.Now()), st.Served, st.Dropped,
			eng.Pending(), latAll.Quantile(0.5), latAll.Quantile(0.99))
		return p.Eng.Now() < duration
	})
	p.Eng.RunUntil(duration + 30) // let the queues drain past the last arrival
	publish()

	// Scrape our own endpoint: the per-app latency summaries exactly as
	// a Prometheus scraper would ingest them.
	resp, err := http.Get(srv.URL() + "/metrics")
	if err != nil {
		log.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nrequest-latency families scraped from /metrics (p50/p99 per app):")
	sc := bufio.NewScanner(strings.NewReader(string(body)))
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "megadc_requests_latency") &&
			(strings.Contains(line, `quantile="0.5"`) || strings.Contains(line, `quantile="0.99"`)) {
			fmt.Println("  " + line)
		}
	}

	st := eng.Stats()
	fmt.Printf("\nrequests: %d generated, %d served, %d dropped, %d no-exposure\n",
		st.Generated, st.Served, st.Dropped, st.NoExposure)
	fmt.Printf("end-to-end latency: p50=%.4fs p99=%.4fs p99.9=%.4fs max=%.4fs\n",
		latAll.Quantile(0.5), latAll.Quantile(0.99), latAll.Quantile(0.999), latAll.Max())
	fmt.Printf("churn: %d server faults, %d repairs\n", inj.ServerFaults, inj.Repairs)

	if err := p.AuditErr(); err != nil {
		log.Fatal("invariant violation: ", err)
	}
	fmt.Println("invariants: ok")
}
