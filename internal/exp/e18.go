package exp

import (
	"fmt"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/ctrlplane"
	"megadc/internal/faults"
	"megadc/internal/metrics"
	"megadc/internal/policy"
	"megadc/internal/requests"
	"megadc/internal/spans"
	"megadc/internal/workload"
)

// E18Row is one (policy × scale × churn) point of the tournament.
type E18Row struct {
	Policy        string
	Pods          int
	ServersPerPod int
	ServerMTBF    float64
	Satisfaction  float64 // final demand satisfaction
	Served        int64
	Dropped       int64
	P99           float64 // end-to-end request latency p99 (s)
	QueueP99      float64 // serialized-CSM reconfig queue wait p99 (s)
	Probes        int64   // state probes the policy spent on its decisions
	DeadLetters   int64   // control RPCs lost for good (0 on the ideal bus)
}

// E18Result records the policy tournament.
type E18Result struct {
	Rows []E18Row
}

// RunE18 is the control-policy tournament: every registered policy
// (internal/policy, DESIGN.md §15) runs the same seeded scenario at
// each (scale × churn) point, and the table compares what each buys
// and what it costs. The scenario layers every measurement surface the
// suite has: a Zipf fluid-demand mix at ~50% aggregate load keeps all
// six knobs busy (satisfaction column), an open-loop request engine
// rides the same platform for end-to-end tail latency, SerializeReconfig
// routes knob B/F reconfigurations through the single slow CSM pipeline
// (queue-wait column, via spans), and the fallible control plane runs
// in ideal-bus mode — asynchronous machinery on, zero delay/loss — so
// the dead-letters column pins the bus itself as lossless while
// policies churn (TestSyncEquivalence's regime). The probes column is
// the cost axis: omniscient pays a full scan per decision, cached and
// power-of-2 pay a bounded budget, straw2 and round-robin pay nothing.
// Each platform is built fresh per cell, so rows are independent and
// the whole table is byte-deterministic per seed (TestE18Deterministic).
func RunE18(o Options) (*metrics.Table, *E18Result, error) {
	duration := 300.0
	mtbfs := []float64{2000, 500}
	shapes := [][2]int{{4, 8}, {8, 8}} // pods × servers/pod
	if o.Full {
		duration = 900
		mtbfs = []float64{2000, 500, 250}
		shapes = append(shapes, [2]int{16, 8})
	}
	const apps = 12
	const instancesPerApp = 3
	const cpuPerRequest = 0.05

	res := &E18Result{}
	for _, name := range policy.Names() {
		for _, shape := range shapes {
			for _, mtbf := range mtbfs {
				topo := core.SmallTopology()
				topo.Seed = o.Seed
				topo.Pods = shape[0]
				topo.ServersPerPod = shape[1]
				cfg := o.configure(core.DefaultConfig())
				cfg.Policy = name
				cfg.SerializeReconfig = true
				tracker := spans.New(nil)
				cfg.Spans = tracker
				cfg.Ctrl = ctrlplane.DefaultConfig()
				cfg.Ctrl.Enable = true // ideal bus: async machinery, zero delay/loss
				cfg.Ctrl.Seed = o.Seed
				cfg.Ctrl.Registry = tracker.Registry()
				p, err := core.NewPlatform(topo, cfg)
				if err != nil {
					return nil, nil, err
				}

				// The E15/E16 fluid mix at ~50% aggregate load drives the
				// knobs; the request engine below rides the same backends.
				weights := workload.ZipfWeights(apps, 0.9)
				totalCPU := 0.5 * topo.ServerCapacity.CPU * float64(topo.Pods*topo.ServersPerPod)
				linkAgg := topo.LinkMbps * float64(topo.ISPs*topo.LinksPerISP)
				fabricAgg := topo.SwitchLimits.ThroughputMbps * float64(topo.Switches)
				totalMbps := 0.5 * min(linkAgg, fabricAgg)
				appIDs := make([]cluster.AppID, 0, apps)
				for i := 0; i < apps; i++ {
					app, err := p.OnboardApp(fmt.Sprintf("app-%d", i),
						cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
						instancesPerApp, core.Demand{})
					if err != nil {
						return nil, nil, err
					}
					appIDs = append(appIDs, app.ID)
					p.DriveDemand(app.ID, workload.Constant(1),
						core.Demand{CPU: totalCPU * weights[i], Mbps: totalMbps * weights[i]},
						50, duration)
				}

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
				fc.Switch.MTBF = 0 // backend churn only; switch loss is E14/E15 territory
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
					return nil, nil, fmt.Errorf("exp: e18 policy=%s shape=%dx%d mtbf=%v: %w",
						name, shape[0], shape[1], mtbf, err)
				}

				st := eng.Stats()
				lat := reg.Histogram("requests.latency.all")
				queue := mergedHistogram(tracker.Registry(),
					"viprip.queue_wait.low", "viprip.queue_wait.normal", "viprip.queue_wait.high")
				res.Rows = append(res.Rows, E18Row{
					Policy:        name,
					Pods:          shape[0],
					ServersPerPod: shape[1],
					ServerMTBF:    mtbf,
					Satisfaction:  p.TotalSatisfaction(),
					Served:        st.Served,
					Dropped:       st.Dropped,
					P99:           lat.Quantile(0.99),
					QueueP99:      queue.Quantile(0.99),
					Probes:        p.Policy().Stats.Probes,
					DeadLetters:   p.Ctrl().DeadLetters,
				})
				// Feed the live endpoint: the tournament's distributions
				// accumulate under aggregate names in the caller's registry.
				if o.Registry != nil {
					o.Registry.Histogram("e18.request_latency").Merge(lat)
					o.Registry.Histogram("e18.queue_wait").Merge(queue)
				}
			}
		}
	}
	tb := metrics.NewTable("E18 — policy tournament: satisfaction, tail latency, control cost by policy × scale × churn",
		"policy", "pods", "servers/pod", "server MTBF (s)", "satisfaction", "served",
		"dropped", "p99 (s)", "queue p99 (s)", "probes", "dead letters")
	for _, r := range res.Rows {
		tb.AddRow(r.Policy, r.Pods, r.ServersPerPod, r.ServerMTBF, r.Satisfaction,
			r.Served, r.Dropped, r.P99, r.QueueP99, r.Probes, r.DeadLetters)
	}
	return tb, res, nil
}
