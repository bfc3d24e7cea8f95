// Package baseline implements the comparison points the paper argues
// against: naive VIP re-advertisement traffic engineering (Section IV-A's
// "naive way") versus selective VIP exposure, and the compartmentalized
// (partitioned) data center versus the shared mega data center (the
// statistical-multiplexing argument of Section I).
package baseline

import (
	"fmt"

	"megadc/internal/dnsctl"
	"megadc/internal/ipv4"
	"megadc/internal/metrics"
	"megadc/internal/sim"
)

// TEConfig parameterizes the access-link traffic-engineering experiment
// (E4). One application's traffic overloads a hot link; the strategy
// under test must move enough load to a cold link. Load is carried by
// discrete sessions so both the DNS-cache dynamics (selective exposure)
// and the session-pinning dynamics (re-advertisement) appear.
type TEConfig struct {
	LinkCapacityMbps float64 // both links
	SessionMbps      float64 // bandwidth per session
	ArrivalRate      float64 // sessions/second (constant)
	MeanSessionSec   float64 // exponential session duration
	TargetUtil       float64 // relief declared when hot-link util < this

	DNSTTLSeconds    float64 // selective exposure: record TTL
	ViolatorFraction float64 // fraction of TTL-violating clients
	ViolationHoldSec float64 // how long violators hold stale entries

	BGPConvergenceSec float64 // re-advertisement: time for new routes to take effect
	PadSafetySec      float64 // wait between padding old route and withdrawing it

	WarmupSec  float64 // run before the intervention to load the hot link
	HorizonSec float64
	Seed       int64
}

// DefaultTEConfig returns the E4 configuration.
func DefaultTEConfig() TEConfig {
	return TEConfig{
		LinkCapacityMbps:  1000,
		SessionMbps:       2,
		ArrivalRate:       12, // ≈ 12·2·50 = 1200 Mbps offered at steady state
		MeanSessionSec:    50,
		TargetUtil:        0.9,
		DNSTTLSeconds:     60,
		ViolatorFraction:  0.1,
		ViolationHoldSec:  600,
		BGPConvergenceSec: 60,
		PadSafetySec:      120,
		WarmupSec:         600,
		HorizonSec:        3000,
		Seed:              42,
	}
}

// TEResult reports one strategy's outcome.
type TEResult struct {
	Strategy      string
	ReliefTime    float64 // seconds from intervention until hot util < target; -1 if never
	RouteUpdates  int64
	HotTimeline   *metrics.Series // hot-link utilization over time (sampled 1/s)
	FinalHotUtil  float64
	FinalColdUtil float64
}

// session bookkeeping shared by both strategies.
type teState struct {
	cfg      TEConfig
	eng      *sim.Engine
	hotMbps  float64
	coldMbps float64
}

func (s *teState) hotUtil() float64  { return s.hotMbps / s.cfg.LinkCapacityMbps }
func (s *teState) coldUtil() float64 { return s.coldMbps / s.cfg.LinkCapacityMbps }

// RunSelectiveExposureTE simulates the paper's knob A: at WarmupSec the
// platform's DNS stops resolving to the hot VIP and exposes the cold
// VIP. New sessions follow DNS immediately (subject to client caches and
// TTL violators); pinned sessions drain at their natural duration.
// No route updates are issued.
func RunSelectiveExposureTE(cfg TEConfig) TEResult {
	eng := sim.New(cfg.Seed)
	st := &teState{cfg: cfg, eng: eng}
	dns := dnsctl.New(cfg.DNSTTLSeconds)
	const app = 1
	const hot, cold = 0, 1 // VIP handles
	hotVIP, coldVIP := ipv4.MustParse("203.0.113.1"), ipv4.MustParse("203.0.113.2")
	dns.Register(app, hotVIP, hot, 1)
	dns.Register(app, coldVIP, cold, 0)
	pop, err := dnsctl.NewClientPopulation(dns, app, 2000, cfg.ViolatorFraction, cfg.ViolationHoldSec, eng.Rand())
	if err != nil {
		panic(fmt.Sprintf("baseline: %v", err))
	}

	res := TEResult{Strategy: "selective-exposure", ReliefTime: -1, HotTimeline: &metrics.Series{}}
	// Intervention: flip DNS exposure.
	eng.At(cfg.WarmupSec, func() {
		dns.SetWeight(app, hotVIP, 0)
		dns.SetWeight(app, coldVIP, 1)
	})
	scheduleArrivals(st, func() string {
		vip, err := pop.Arrive(eng.Now(), eng.Rand())
		if err != nil || vip == hot {
			return "hot"
		}
		return "cold"
	})
	runTE(st, &res)
	return res
}

// RunNaiveReadvertTE simulates the baseline: at WarmupSec the operator
// pads the AS path of the hot link's route (1 update) and advertises the
// VIP at the cold link (1 update). New sessions only shift after BGP
// convergence; after a safety period with no new connections on the old
// route, it is withdrawn (1 more update). Pinned sessions drain at their
// natural duration.
func RunNaiveReadvertTE(cfg TEConfig) TEResult {
	eng := sim.New(cfg.Seed)
	st := &teState{cfg: cfg, eng: eng}
	res := TEResult{Strategy: "naive-readvertise", ReliefTime: -1, HotTimeline: &metrics.Series{}}

	converged := false
	eng.At(cfg.WarmupSec, func() {
		res.RouteUpdates += 2 // pad old route + advertise new route
		eng.After(cfg.BGPConvergenceSec, func() { converged = true })
		eng.After(cfg.BGPConvergenceSec+cfg.PadSafetySec, func() {
			res.RouteUpdates++ // withdraw old route
		})
	})
	scheduleArrivals(st, func() string {
		if converged {
			return "cold"
		}
		return "hot"
	})
	runTE(st, &res)
	return res
}

// scheduleArrivals generates Poisson session arrivals; pick returns the
// link ("hot"/"cold") each new session lands on. Sessions add their
// bandwidth to the link for an exponential duration.
func scheduleArrivals(st *teState, pick func() string) {
	cfg := st.cfg
	var arrive func()
	arrive = func() {
		if st.eng.Now() >= cfg.HorizonSec {
			return
		}
		link := pick()
		mbps := cfg.SessionMbps
		if link == "hot" {
			st.hotMbps += mbps
		} else {
			st.coldMbps += mbps
		}
		dur := st.eng.Rand().ExpFloat64() * cfg.MeanSessionSec
		st.eng.After(dur, func() {
			if link == "hot" {
				st.hotMbps -= mbps
			} else {
				st.coldMbps -= mbps
			}
		})
		st.eng.After(st.eng.Rand().ExpFloat64()/cfg.ArrivalRate, arrive)
	}
	st.eng.At(0, arrive)
}

// runTE samples utilization once per second and records relief time.
func runTE(st *teState, res *TEResult) {
	cfg := st.cfg
	st.eng.Every(1, 1, func() bool {
		now := st.eng.Now()
		res.HotTimeline.Record(now, st.hotUtil())
		if res.ReliefTime < 0 && now > cfg.WarmupSec && st.hotUtil() < cfg.TargetUtil {
			res.ReliefTime = now - cfg.WarmupSec
		}
		return now < cfg.HorizonSec
	})
	// "Final" means at the horizon: sessions that would naturally end
	// later must still be counted as load.
	st.eng.At(cfg.HorizonSec, func() {
		res.FinalHotUtil = st.hotUtil()
		res.FinalColdUtil = st.coldUtil()
	})
	st.eng.RunUntil(cfg.HorizonSec)
}
