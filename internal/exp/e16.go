package exp

import (
	"fmt"
	"math"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/ctrlplane"
	"megadc/internal/metrics"
	"megadc/internal/spans"
	"megadc/internal/workload"
)

// E16Row is one (message delay, loss, snapshot staleness) point of the
// fallible-control-plane sweep.
type E16Row struct {
	Delay     float64 // mean one-way control-message delay (s)
	Loss      float64 // per-message loss probability
	Staleness float64 // pod-utilization snapshot period (s); 0 = live

	MeanSat float64 // time-averaged total satisfaction during the crowd
	// Oscillation sums |Δsatisfaction| over the sampling grid: a control
	// plane reacting to a stale or delayed view overshoots, reverses,
	// and overshoots again, so the same demand curve costs more movement.
	Oscillation float64
	Reconfigs   int64   // requests through the serialized pipeline
	QueueP99    float64 // VIP/RIP reconfig queue wait p99 (s)
	DeliveryP99 float64 // control-message delivery latency p99 (s)
	Retries     int64   // bus retransmissions
	DeadLetters int64   // calls that exhausted their retry cap
	StaleWrites int64   // DNS writes rejected by the generation guard
}

// E16Result records the fallible-control-plane experiment.
type E16Result struct {
	Rows []E16Row
}

// RunE16 subjects the full control stack — global manager, pod
// managers, the serialized CSM pipeline, and DNS — to a fallible
// asynchronous control plane while a flash crowd sweeps through a
// Zipf application mix. Every control decision rides the message bus
// with the configured delay and loss (timeout → exponential backoff →
// retry, idempotency-keyed), and the global manager steers from pod
// snapshots refreshed every Staleness seconds instead of live reads.
// The sweep separates the three degradation axes the paper's elastic
// scenario stresses: pure delay slows reactions; loss adds retry
// latency tails; staleness makes the manager chase where load *was*,
// which shows up as oscillation — satisfaction movement per unit of
// the same demand curve — and wasted reconfigurations.
func RunE16(o Options) (*metrics.Table, *E16Result, error) {
	const duration = 4000.0
	const sampleEvery = 25.0
	type point struct{ delay, loss, stale float64 }
	points := []point{
		{0, 0, 0}, // synchronous baseline
		{2, 0, 0},
		{8, 0, 0},
		{2, 0.05, 0},
		{2, 0.20, 0},
		{2, 0.05, 60},
		{2, 0.05, 240},
	}
	if o.Full {
		points = append(points, point{8, 0.20, 240}, point{20, 0.05, 60})
	}
	res := &E16Result{}
	for _, pt := range points {
		topo := core.SmallTopology()
		topo.Seed = o.Seed
		cfg := o.configure(core.DefaultConfig())
		cfg.SerializeReconfig = true
		tracker := spans.New(nil)
		cfg.Spans = tracker
		cfg.Ctrl = ctrlplane.DefaultConfig()
		cfg.Ctrl.Enable = true
		cfg.Ctrl.Default = ctrlplane.LinkConfig{
			Delay:    pt.delay,
			Jitter:   pt.delay / 4,
			LossProb: pt.loss,
		}
		cfg.Ctrl.SnapshotEvery = pt.stale
		cfg.Ctrl.Seed = o.Seed
		cfg.Ctrl.Registry = tracker.Registry()
		p, err := core.NewPlatform(topo, cfg)
		if err != nil {
			return nil, nil, err
		}
		// The E15 application mix at a calmer base load, so the flash
		// crowd below — tripling the hottest apps — is what stresses the
		// control plane rather than a permanently saturated fabric.
		weights := workload.ZipfWeights(16, 0.9)
		totalCPU := 0.45 * topo.ServerCapacity.CPU * float64(topo.Pods*topo.ServersPerPod)
		linkAgg := topo.LinkMbps * float64(topo.ISPs*topo.LinksPerISP)
		fabricAgg := topo.SwitchLimits.ThroughputMbps * float64(topo.Switches)
		totalMbps := 0.45 * min(linkAgg, fabricAgg)
		for i := 0; i < 16; i++ {
			app, err := p.OnboardApp("a", cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100},
				3, core.Demand{})
			if err != nil {
				return nil, nil, err
			}
			profile := workload.Profile(workload.Constant(1))
			if i < 4 {
				// The head of the Zipf mix rides the flash crowd: ramp to
				// 3× over 300 s, hold, ramp back.
				profile = workload.FlashCrowd{Base: 1, Peak: 3, Start: 1000, Ramp: 300, Hold: 800}
			}
			p.DriveDemand(app.ID, profile,
				core.Demand{CPU: totalCPU * weights[i], Mbps: totalMbps * weights[i]},
				50, duration)
		}
		p.Start()

		var samples []float64
		p.Eng.Every(sampleEvery, sampleEvery, func() bool {
			samples = append(samples, p.TotalSatisfaction())
			return p.Eng.Now() < duration
		})
		p.Eng.RunUntil(duration)
		p.Close()
		if err := p.AuditErr(); err != nil {
			return nil, nil, fmt.Errorf("exp: e16 point %+v: %w", pt, err)
		}

		var sum, osc float64
		for i, s := range samples {
			sum += s
			if i > 0 {
				osc += math.Abs(s - samples[i-1])
			}
		}
		mean := 0.0
		if len(samples) > 0 {
			mean = sum / float64(len(samples))
		}
		reg := tracker.Registry()
		queue := mergedHistogram(reg,
			"viprip.queue_wait.low", "viprip.queue_wait.normal", "viprip.queue_wait.high")
		res.Rows = append(res.Rows, E16Row{
			Delay:       pt.delay,
			Loss:        pt.loss,
			Staleness:   pt.stale,
			MeanSat:     mean,
			Oscillation: osc,
			Reconfigs:   p.VIPRIP.Processed,
			QueueP99:    queue.Quantile(0.99),
			DeliveryP99: reg.Histogram("rpc.delivery_latency").Quantile(0.99),
			Retries:     p.Ctrl().Retries,
			DeadLetters: p.Ctrl().DeadLetters,
			StaleWrites: p.DNS.StaleWrites,
		})
		if o.Registry != nil {
			o.Registry.Histogram("e16.queue_wait").Merge(queue)
			o.Registry.Histogram("e16.rpc_delivery").Merge(reg.Histogram("rpc.delivery_latency"))
		}
	}
	tb := metrics.NewTable("E16 — satisfaction and reconfiguration under a fallible control plane",
		"delay (s)", "loss", "staleness (s)", "mean sat", "oscillation", "reconfigs",
		"queue p99 (s)", "delivery p99 (s)", "retries", "dead letters", "stale writes")
	for _, r := range res.Rows {
		tb.AddRow(r.Delay, r.Loss, r.Staleness, r.MeanSat, r.Oscillation, r.Reconfigs,
			r.QueueP99, r.DeliveryP99, r.Retries, r.DeadLetters, r.StaleWrites)
	}
	return tb, res, nil
}
