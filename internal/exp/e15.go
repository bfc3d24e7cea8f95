package exp

import (
	"fmt"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/faults"
	"megadc/internal/metrics"
	"megadc/internal/spans"
	"megadc/internal/workload"
)

// E15Row is one churn-rate point of the control-plane latency sweep.
type E15Row struct {
	ServerMTBF float64
	Reconfigs  int64   // requests through the serialized pipeline
	Drains     uint64  // completed drain→transfer protocols
	QueueP50   float64 // VIP/RIP queue wait percentiles (all priorities)
	QueueP99   float64
	DrainP50   float64 // drain start → exposure restored
	DrainP99   float64
	RepairP50  float64 // fault detected → repaired (all component kinds)
	RepairP99  float64
}

// E15Result records the control-plane latency experiment.
type E15Result struct {
	Rows []E15Row
}

// mergedHistogram folds the named registry histograms into one
// distribution.
func mergedHistogram(reg *metrics.Registry, names ...string) *metrics.Histogram {
	out := metrics.NewHistogram()
	for _, name := range names {
		out.Merge(reg.Histogram(name))
	}
	return out
}

// RunE15 sweeps the component churn rate under the serialized
// control plane (core.Config.SerializeReconfig) with the span layer
// attached, and reports how control-plane latency degrades as faults
// arrive faster: every switch reconfiguration — drain-driven VIP
// transfers and inter-pod weight shifts alike — waits its turn in the
// single slow CSM configuration pipeline (the paper's "configuring the
// load balancing switches takes only several seconds" channel), so
// rising churn turns a fixed service time into growing queue waits.
// Columns give the queue-wait, drain-duration, and detect→repair
// percentiles straight from the span histograms — the same numbers a
// live run exports at /metrics.
func RunE15(o Options) (*metrics.Table, *E15Result, error) {
	duration := 6000.0
	mtbfs := []float64{2000, 1000, 500}
	if o.Full {
		duration = 12000
		mtbfs = []float64{4000, 2000, 1000, 500, 250}
	}
	res := &E15Result{}
	for _, mtbf := range mtbfs {
		topo := core.SmallTopology()
		topo.Seed = o.Seed
		cfg := o.configure(core.DefaultConfig())
		cfg.SerializeReconfig = true
		tracker := spans.New(nil)
		cfg.Spans = tracker
		p, err := core.NewPlatform(topo, cfg)
		if err != nil {
			return nil, nil, err
		}
		// A Zipf application mix at ~55% aggregate load, like
		// cmd/megadcsim's default scenario: enough traffic that losing a
		// switch to churn overloads the survivors and triggers the drain
		// protocol (knob B) through the serialized pipeline.
		weights := workload.ZipfWeights(16, 0.9)
		totalCPU := 0.55 * topo.ServerCapacity.CPU * float64(topo.Pods*topo.ServersPerPod)
		linkAgg := topo.LinkMbps * float64(topo.ISPs*topo.LinksPerISP)
		fabricAgg := topo.SwitchLimits.ThroughputMbps * float64(topo.Switches)
		totalMbps := 0.55 * min(linkAgg, fabricAgg)
		for i := 0; i < 16; i++ {
			if _, err := p.OnboardApp("a", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
				3, core.Demand{CPU: totalCPU * weights[i], Mbps: totalMbps * weights[i]}); err != nil {
				return nil, nil, err
			}
		}
		fc := faults.DefaultConfig()
		fc.Server.MTBF = mtbf
		fc.Switch.MTBF = 4 * mtbf
		fc.Link.MTBF = 3 * mtbf
		inj := faults.New(p, fc)
		p.Start()
		inj.Start(duration)
		p.Eng.RunUntil(duration)
		p.Close()
		if err := p.AuditErr(); err != nil {
			return nil, nil, fmt.Errorf("exp: e15 mtbf=%v: %w", mtbf, err)
		}

		reg := tracker.Registry()
		queue := mergedHistogram(reg,
			"viprip.queue_wait.low", "viprip.queue_wait.normal", "viprip.queue_wait.high")
		drain := reg.Histogram("drain.start_to_finish")
		repair := mergedHistogram(reg,
			"fault.detect_to_repair.server", "fault.detect_to_repair.switch", "fault.detect_to_repair.link")
		res.Rows = append(res.Rows, E15Row{
			ServerMTBF: mtbf,
			Reconfigs:  p.VIPRIP.Processed,
			Drains:     drain.Count(),
			QueueP50:   queue.Quantile(0.5),
			QueueP99:   queue.Quantile(0.99),
			DrainP50:   drain.Quantile(0.5),
			DrainP99:   drain.Quantile(0.99),
			RepairP50:  repair.Quantile(0.5),
			RepairP99:  repair.Quantile(0.99),
		})
		// Feed the live endpoint: the sweep's distributions accumulate
		// under aggregate names in the caller's registry.
		if o.Registry != nil {
			o.Registry.Histogram("e15.queue_wait").Merge(queue)
			o.Registry.Histogram("e15.drain_duration").Merge(drain)
			o.Registry.Histogram("e15.detect_to_repair").Merge(repair)
		}
		_ = inj
	}
	tb := metrics.NewTable("E15 — control-plane latency vs churn rate (serialized reconfiguration)",
		"server MTBF (s)", "reconfigs", "drains", "queue p50 (s)", "queue p99 (s)",
		"drain p50 (s)", "drain p99 (s)", "repair p50 (s)", "repair p99 (s)")
	for _, r := range res.Rows {
		tb.AddRow(r.ServerMTBF, r.Reconfigs, r.Drains, r.QueueP50, r.QueueP99,
			r.DrainP50, r.DrainP99, r.RepairP50, r.RepairP99)
	}
	return tb, res, nil
}
