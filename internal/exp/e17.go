package exp

import (
	"fmt"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/faults"
	"megadc/internal/metrics"
	"megadc/internal/requests"
	"megadc/internal/workload"
)

// E17Row is one (pod shape × churn rate) point of the request-latency
// sweep.
type E17Row struct {
	Pods          int
	ServersPerPod int
	ServerMTBF    float64
	Served        int64
	Dropped       int64
	NoExposure    int64
	P50           float64 // end-to-end request latency percentiles (s)
	P99           float64
	P999          float64
}

// E17Result records the request tail-latency experiment.
type E17Result struct {
	Rows []E17Row
}

// RunE17 measures per-request tail latency under churn across pod
// shapes. The total server count is held fixed while the pod size
// varies, so every point offers the same aggregate capacity; the
// request engine (internal/requests) derives each switch queue's
// service rate from live backend health, so a server failure slows the
// affected queues until the pod manager redeploys. Smaller pods lose a
// smaller capacity fraction per failure but have less local headroom to
// redeploy into; the p99/p99.9 columns show where each shape's knee is.
// Requests arrive open-loop at ~60% of aggregate service capacity with
// Zipf app popularity, so the busiest switches sit close enough to
// saturation that capacity dips surface as queue-wait tail, not just
// drops.
func RunE17(o Options) (*metrics.Table, *E17Result, error) {
	duration := 400.0
	mtbfs := []float64{2000, 500}
	shapes := [][2]int{{8, 4}, {4, 8}, {2, 16}} // pods × servers, 32 total
	if o.Full {
		duration = 1200
		mtbfs = []float64{4000, 1000, 250}
	}
	const apps = 8
	const instancesPerApp = 4
	const cpuPerRequest = 0.05

	res := &E17Result{}
	for _, shape := range shapes {
		for _, mtbf := range mtbfs {
			topo := core.SmallTopology()
			topo.Seed = o.Seed
			topo.Pods = shape[0]
			topo.ServersPerPod = shape[1]
			cfg := o.configure(core.DefaultConfig())
			p, err := core.NewPlatform(topo, cfg)
			if err != nil {
				return nil, nil, err
			}
			appIDs := make([]cluster.AppID, 0, apps)
			for i := 0; i < apps; i++ {
				a, err := p.OnboardApp(fmt.Sprintf("app-%d", i),
					cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
					instancesPerApp, core.Demand{})
				if err != nil {
					return nil, nil, err
				}
				appIDs = append(appIDs, a.ID)
			}
			// λ = 60% of the aggregate derived service rate
			// (apps × instances × 1 core / CPU-per-request).
			lambda := 0.6 * float64(apps*instancesPerApp) / cpuPerRequest

			reg := metrics.NewRegistry()
			rcfg := requests.DefaultConfig()
			rcfg.Profile = workload.Constant(lambda)
			rcfg.CPUPerRequest = cpuPerRequest
			rcfg.QueueCap = 500
			rcfg.Registry = reg
			rcfg.StopAt = duration
			eng, err := requests.New(p, rcfg)
			if err != nil {
				return nil, nil, err
			}
			if err := eng.AddAppsZipf(appIDs, 0.9); err != nil {
				return nil, nil, err
			}

			fc := faults.DefaultConfig()
			fc.Server.MTBF = mtbf
			fc.Switch.MTBF = 0 // isolate backend churn; switch loss is E14/E15 territory
			fc.Link.MTBF = 0
			inj := faults.New(p, fc)
			p.Start()
			if err := eng.Start(); err != nil {
				return nil, nil, err
			}
			inj.Start(duration)
			p.Eng.RunUntil(duration + 60) // drain the queues past StopAt
			p.Close()
			if err := p.AuditErr(); err != nil {
				return nil, nil, fmt.Errorf("exp: e17 shape=%dx%d mtbf=%v: %w", shape[0], shape[1], mtbf, err)
			}

			st := eng.Stats()
			lat := reg.Histogram("requests.latency.all")
			res.Rows = append(res.Rows, E17Row{
				Pods:          shape[0],
				ServersPerPod: shape[1],
				ServerMTBF:    mtbf,
				Served:        st.Served,
				Dropped:       st.Dropped,
				NoExposure:    st.NoExposure,
				P50:           lat.Quantile(0.5),
				P99:           lat.Quantile(0.99),
				P999:          lat.Quantile(0.999),
			})
			// Feed the live endpoint: the sweep's latency distribution
			// accumulates under an aggregate name in the caller's registry.
			if o.Registry != nil {
				o.Registry.Histogram("e17.request_latency").Merge(lat)
				o.Registry.Histogram("e17.request_wait").Merge(reg.Histogram("requests.wait.all"))
			}
		}
	}
	tb := metrics.NewTable("E17 — request tail latency vs churn rate × pod size (fixed 32 servers)",
		"pods", "servers/pod", "server MTBF (s)", "served", "dropped", "no exposure",
		"p50 (s)", "p99 (s)", "p99.9 (s)")
	for _, r := range res.Rows {
		tb.AddRow(r.Pods, r.ServersPerPod, r.ServerMTBF, r.Served, r.Dropped,
			r.NoExposure, r.P50, r.P99, r.P999)
	}
	return tb, res, nil
}
