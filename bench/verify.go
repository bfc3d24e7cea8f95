package main

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"

	"megadc/internal/metrics"
)

// digest hashes the run's outputs: engine steps, final time,
// satisfaction, every registry counter, gauge and histogram, the
// request outcomes and latency quantiles, the policy probe count and
// the fault counters. A change that only makes the simulator faster
// leaves it unchanged.
func (in *instance) digest() string {
	p := in.p
	p.PublishMetrics(in.reg)
	h := fnv.New64a()
	put := func(name string, v uint64) {
		h.Write([]byte(name))
		h.Write(binary.LittleEndian.AppendUint64(nil, v))
	}
	putF := func(name string, v float64) { put(name, math.Float64bits(v)) }
	put("steps", p.Eng.Steps())
	putF("now", p.Eng.Now())
	putF("satisfaction", p.TotalSatisfaction())
	in.reg.Each(func(name string, m any) {
		switch m := m.(type) {
		case *metrics.Counter:
			put(name, uint64(m.Value()))
		case *metrics.Gauge:
			putF(name, m.Value())
		case *metrics.Histogram:
			put(name+".count", m.Count())
			putF(name+".sum", m.Sum())
		}
	})
	if e := in.req; e != nil {
		st := e.Stats()
		for _, v := range []int64{st.Generated, st.Enqueued, st.Served, st.Dropped, st.NoExposure, int64(e.Pending())} {
			put("requests", uint64(v))
		}
		if lat := histogram(in.reg, "requests.latency.all"); lat != nil {
			for _, q := range []float64{0.5, 0.99, 0.999} {
				putF("latency", lat.Quantile(q))
			}
		}
	}
	put("policy.probes", uint64(p.Policy().Stats.Probes))
	if f := in.inj; f != nil {
		for _, v := range []int64{f.ServerFaults, f.SwitchFaults, f.LinkFaults, f.PodPartitions,
			f.PartitionHeals, f.Detections, f.Repairs, f.Skipped} {
			put("faults", uint64(v))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// verify checks the run's end state: substrate invariants, a final
// audit with no violations, per-switch request counters, request
// conservation, and that after the drain no request waits at a switch
// with serving capacity. Requests may stay stranded at a switch whose
// VIPs have lost every backend: the request engine never serves or
// drops them.
func (in *instance) verify() error {
	if err := in.p.CheckInvariants(); err != nil {
		return fmt.Errorf("invariants: %w", err)
	}
	if err := in.p.AuditErr(); err != nil {
		return err
	}
	e := in.req
	if e == nil {
		return nil
	}
	st := e.Stats()
	if pending := int64(e.Pending()); st.Generated != st.Served+st.Dropped+st.NoExposure+pending {
		return fmt.Errorf("requests: generated %d != served %d + dropped %d + no_exposure %d + pending %d",
			st.Generated, st.Served, st.Dropped, st.NoExposure, pending)
	}
	if st.Served == 0 {
		return fmt.Errorf("requests: none served")
	}
	scan := in.p.NewBackendScan()
	for _, sw := range in.p.Fabric.Switches() {
		if err := sw.CheckReqInvariants(); err != nil {
			return fmt.Errorf("requests: %w", err)
		}
		if sw.Req.Depth > 0 && scan.SwitchCPU(sw.ID) > 0 {
			return fmt.Errorf("requests: %d still pending after the drain at switch %d, which has serving capacity",
				sw.Req.Depth, sw.ID)
		}
	}
	return nil
}

// attempted counts the run's operations: requests generated, control
// RPCs sent and demand updates made by benchmark timers.
func (in *instance) attempted() int64 {
	n := in.updates
	if b := in.p.Ctrl(); b.Enabled() {
		n += b.Sent
	}
	if in.req != nil {
		n += in.req.Stats().Generated
	}
	return n
}

// histogram returns the named registry histogram, or nil when the run
// never created it (the lazy getter would create it).
func histogram(reg *metrics.Registry, name string) *metrics.Histogram {
	if reg.Kind(name) != "histogram" {
		return nil
	}
	return reg.Histogram(name)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// modelMetrics returns the run's deterministic outputs and counts. Call
// after digest, which publishes the platform counters into the registry.
func (in *instance) modelMetrics() map[string]metric {
	p, reg := in.p, in.reg
	c := func(name string) int64 {
		if reg.Kind(name) != "counter" {
			return 0
		}
		return reg.Counter(name).Value()
	}
	out := map[string]metric{}
	count := func(name string, v int64) { out[name] = metric{float64(v), "count"} }
	out["model.satisfaction"] = metric{p.TotalSatisfaction(), "ratio"}

	for _, n := range []string{"vip_transfers", "failed_transfers", "server_transfers", "deployments",
		"vm_resizes", "exposure_changes", "interpod_adjusts", "drain_force_breaks"} {
		count("core."+n, c("core."+n))
	}
	count("policy.probes", p.Policy().Stats.Probes)
	for _, n := range []string{"deferred_ops", "reconciled_ops", "dropped_stale_ops"} {
		count("pod."+n, c("pod."+n))
	}
	out["pod.reconcile_ratio"] = metric{ratio(c("pod.reconciled_ops"), c("pod.deferred_ops")), "ratio"}

	bus := p.Ctrl()
	var sent, retries, dropped, deduped, dead, delivered int64
	if bus.Enabled() {
		sent, retries, dropped, deduped, dead, delivered = bus.Sent, bus.Retries, bus.Dropped, bus.Deduped, bus.DeadLetters, bus.Delivered
	}
	count("ctrlplane.sent", sent)
	count("ctrlplane.retries", retries)
	count("ctrlplane.dropped", dropped)
	count("ctrlplane.deduped", deduped)
	count("ctrlplane.dead_letters", dead)
	out["ctrlplane.useful_ratio"] = metric{ratio(delivered, sent+retries), "ratio"}
	out["model.ctrl_dead_letter_ratio"] = metric{ratio(dead, sent), "ratio"}

	count("viprip.processed", c("viprip.processed"))
	count("viprip.requeues", c("viprip.requeues"))
	var wait *metrics.Histogram
	for _, class := range []string{"low", "normal", "high"} {
		h := histogram(reg, "viprip.queue_wait."+class)
		switch {
		case h == nil:
		case wait == nil:
			wait = h.Clone()
		default:
			if err := wait.Merge(h); err != nil {
				panic(err) // every registry histogram has the default bounds
			}
		}
	}
	out["viprip.queue_wait_p99_s"] = metric{quantile(wait, 0.99), "s"}

	for _, n := range []string{"dns.resolutions", "dns.weight_changes", "dns.stale_writes",
		"fabric.transfers", "fabric.broken_conns"} {
		count(n, c(n))
	}

	var st struct{ Generated, Served, Dropped, NoExposure, Stranded int64 }
	queues := 0
	if e := in.req; e != nil {
		s := e.Stats()
		st.Generated, st.Served, st.Dropped, st.NoExposure = s.Generated, s.Served, s.Dropped, s.NoExposure
		st.Stranded = int64(e.Pending())
		queues = e.AttachedQueues()
	}
	count("requests.generated", st.Generated)
	count("requests.served", st.Served)
	count("requests.dropped", st.Dropped)
	count("requests.no_exposure", st.NoExposure)
	count("requests.stranded", st.Stranded)
	count("requests.queues_attached", int64(queues))
	lat := histogram(reg, "requests.latency.all")
	count("model.req_count", int64(countOf(lat)))
	out["model.req_p50_s"] = metric{quantile(lat, 0.5), "s"}
	out["model.req_p999_s"] = metric{quantile(lat, 0.999), "s"}
	out["model.req_fail_ratio"] = metric{ratio(st.Dropped+st.NoExposure+st.Stranded, st.Generated), "ratio"}

	var injected, detections, repairs, skipped, partitions int64
	if f := in.inj; f != nil {
		injected, detections, repairs, skipped, partitions = f.Faults(), f.Detections, f.Repairs, f.Skipped, f.PodPartitions
	}
	count("faults.injected", injected)
	count("faults.detections", detections)
	count("faults.repairs", repairs)
	count("faults.skipped", skipped)
	count("faults.partitions", partitions)

	count("causal.decisions", c("causal.decisions"))
	abandoned := 0
	if ca := p.Causal(); ca != nil {
		abandoned = ca.Abandoned()
	}
	count("causal.abandoned", int64(abandoned))
	count("trace.events", int64(p.Cfg.Trace.Total()))
	count("sim.events", int64(p.Eng.Steps()))
	return out
}

func quantile(h *metrics.Histogram, q float64) float64 {
	if h == nil || h.Count() == 0 {
		return 0
	}
	return h.Quantile(q)
}

func countOf(h *metrics.Histogram) uint64 {
	if h == nil {
		return 0
	}
	return h.Count()
}
