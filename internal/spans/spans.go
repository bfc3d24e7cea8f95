// Package spans turns the flight recorder's point events into duration
// distributions: it tracks open control-plane lifecycles (a queued
// VIP/RIP request, a drain in progress, a fault awaiting detection, a
// DNS change propagating to resolver caches) and, when each closes,
// records the elapsed simulated time into named histograms in a
// metrics.Registry.
//
// The tracker is a pure observer. It subscribes to trace.Recorder's
// OnEvent hook, never touches simulation state, and never consumes
// randomness, so a run with spans enabled ends byte-identical to the
// same seeded run without them (core.TestObservabilityDoesNotPerturb).
//
// Histogram naming convention (DESIGN.md §11): dot-separated lowercase
// paths, component first, lifecycle second, class label last —
//
//	viprip.queue_wait.{low,normal,high}    submit → processing starts
//	viprip.service_time.{low,normal,high}  processing starts → effect lands
//	drain.start_to_finish                  drain start → exposure restored
//	drain.start_to_force                   drain start → forced transfer
//	fault.inject_to_detect.{server,switch,link}
//	fault.detect_to_repair.{server,switch,link}
//	dns.convergence                        first change of a burst → last change + TTL
//	rpc.rtt                                control call sent → ack received
package spans

import (
	"megadc/internal/health"
	"megadc/internal/metrics"
	"megadc/internal/trace"
	"megadc/internal/viprip"
)

type faultOpen struct {
	injectT  float64
	detectT  float64
	detected bool
}

// Tracker matches lifecycle-opening events to lifecycle-closing ones
// and records the durations. Create with New; feed with Handle (wired
// to trace.Recorder.OnEvent by the platform) plus the direct DNS calls.
type Tracker struct {
	reg *metrics.Registry

	// Open lifecycles, keyed deterministically (integer seq or entity
	// identity); the maps are never iterated, so map order is moot.
	reqSubmitT map[int64]float64
	reqProcT   map[int64]float64
	drainT     map[int64]float64 // drain start time by VIP address (trace.Ref.ID)
	faults     map[trace.Ref]faultOpen
	rpcT       map[int64]float64

	// DNS convergence window: a burst of DNS changes converges when the
	// TTL after the *last* change of the burst expires.
	dnsOpen     bool
	dnsStart    float64
	dnsDeadline float64
}

// New creates a tracker recording into reg (a fresh registry if nil).
func New(reg *metrics.Registry) *Tracker {
	if reg == nil {
		reg = metrics.NewRegistry()
	}
	return &Tracker{
		reg:        reg,
		reqSubmitT: make(map[int64]float64),
		reqProcT:   make(map[int64]float64),
		drainT:     make(map[int64]float64),
		faults:     make(map[trace.Ref]faultOpen),
		rpcT:       make(map[int64]float64),
	}
}

// Registry returns the registry the tracker records into.
func (s *Tracker) Registry() *metrics.Registry { return s.reg }

// priorityClass maps a viprip priority to its histogram label.
func priorityClass(p viprip.Priority) string {
	switch p {
	case viprip.PriorityLow:
		return "low"
	case viprip.PriorityNormal:
		return "normal"
	case viprip.PriorityHigh:
		return "high"
	}
	return "unknown"
}

// kindClass maps a component ref kind to its histogram label, or ""
// for kinds outside the failure domains.
func kindClass(k trace.Kind) string {
	switch k {
	case trace.KindServer:
		return "server"
	case trace.KindSwitch:
		return "switch"
	case trace.KindLink:
		return "link"
	}
	return ""
}

// Handle consumes one flight-recorder event. It is the trace.Recorder
// OnEvent hook; events must arrive in recording (= simulated time)
// order.
func (s *Tracker) Handle(e *trace.Event) {
	switch e.Type {
	case trace.EvReqSubmit:
		// B carries the request's submission seq, A its priority.
		s.reqSubmitT[int64(e.B)] = e.T

	case trace.EvReqProcess:
		seq := int64(e.B)
		if t0, ok := s.reqSubmitT[seq]; ok {
			delete(s.reqSubmitT, seq)
			s.hist("viprip.queue_wait." + priorityClass(viprip.Priority(e.A))).Observe(e.T - t0)
			s.reqProcT[seq] = e.T
		}

	case trace.EvReqDone:
		seq := int64(e.B)
		if t0, ok := s.reqProcT[seq]; ok {
			delete(s.reqProcT, seq)
			s.hist("viprip.service_time." + priorityClass(viprip.Priority(e.A))).Observe(e.T - t0)
		}

	case trace.EvReqRequeue:
		// The request's in-service slot ended without an effect (its switch
		// failed mid-flight); Submit will re-open the lifecycle under a
		// fresh seq, so drop the old one instead of leaking it.
		delete(s.reqProcT, int64(e.B))

	case trace.EvRPCSend:
		// A carries the message ID, B the attempt number. Only the first
		// attempt of an acked call opens the RTT lifecycle; retries reuse
		// it and casts (B == 0) have no lifecycle at all.
		if e.B == 1 {
			s.rpcT[int64(e.A)] = e.T
		}

	case trace.EvRPCAck:
		id := int64(e.A)
		if t0, ok := s.rpcT[id]; ok {
			delete(s.rpcT, id)
			s.hist("rpc.rtt").Observe(e.T - t0)
		}

	case trace.EvRPCDeadLetter:
		// The call gave up: close the lifecycle without an RTT to report.
		delete(s.rpcT, int64(e.A))

	case trace.EvDrainStart:
		if vip := e.Refs[0]; vip.Kind == trace.KindVIP {
			s.drainT[vip.ID] = e.T
		}

	case trace.EvDrainForce:
		if vip := e.Refs[0]; vip.Kind == trace.KindVIP {
			if t0, ok := s.drainT[vip.ID]; ok {
				// Forced: the pause never came. The drain stays open —
				// EvDrainFinish still follows and closes start_to_finish.
				s.hist("drain.start_to_force").Observe(e.T - t0)
			}
		}

	case trace.EvDrainFinish:
		if vip := e.Refs[0]; vip.Kind == trace.KindVIP {
			if t0, ok := s.drainT[vip.ID]; ok {
				delete(s.drainT, vip.ID)
				s.hist("drain.start_to_finish").Observe(e.T - t0)
			}
		}

	case trace.EvHealth:
		class := kindClass(e.Refs[0].Kind)
		if class == "" {
			return
		}
		key := e.Refs[0]
		inject, detect, repair := health.PhaseEdges(health.State(e.A), health.State(e.B))
		switch {
		case inject:
			s.faults[key] = faultOpen{injectT: e.T}
		case detect:
			if f, ok := s.faults[key]; ok && !f.detected {
				s.hist("fault.inject_to_detect." + class).Observe(e.T - f.injectT)
				f.detected, f.detectT = true, e.T
				s.faults[key] = f
			}
		case repair:
			if f, ok := s.faults[key]; ok {
				delete(s.faults, key)
				// A flap that cleared before detection closes the
				// lifecycle without a detection latency to report.
				if f.detected {
					s.hist("fault.detect_to_repair." + class).Observe(e.T - f.detectT)
				}
			}
		}
	}
}

// DNSChanged records a DNS change at time now with the zone's TTL and
// returns the convergence deadline (now + ttl): resolver caches are
// guaranteed current once the TTL after the burst's last change has
// expired. The caller (the platform) schedules CloseDNSWindow at the
// returned deadline; a later change in the same burst extends it.
func (s *Tracker) DNSChanged(now, ttl float64) (deadline float64) {
	if !s.dnsOpen {
		s.dnsOpen = true
		s.dnsStart = now
	}
	s.dnsDeadline = now + ttl
	return s.dnsDeadline
}

// CloseDNSWindow closes the open convergence window if deadline is
// still its deadline (no later change extended the burst) and records
// the change→convergence duration.
func (s *Tracker) CloseDNSWindow(deadline float64) {
	if !s.dnsOpen || s.dnsDeadline != deadline {
		return
	}
	s.dnsOpen = false
	s.hist("dns.convergence").Observe(deadline - s.dnsStart)
}

// OpenLifecycles returns how many span lifecycles are currently open
// (queued requests, active drains, unrepaired faults, plus an unclosed
// DNS window) — an observability self-check.
func (s *Tracker) OpenLifecycles() int {
	n := len(s.reqSubmitT) + len(s.reqProcT) + len(s.drainT) + len(s.faults) + len(s.rpcT)
	if s.dnsOpen {
		n++
	}
	return n
}

func (s *Tracker) hist(name string) *metrics.Histogram {
	return s.reg.Histogram(name)
}
