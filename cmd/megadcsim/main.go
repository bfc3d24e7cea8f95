// Command megadcsim builds a mega-data-center platform (the Figure 1
// architecture), onboards a Zipf-popular application mix, drives demand,
// runs the hierarchical managers, and reports the platform state over
// time. With -print-topology it validates and prints the component graph
// of Figure 1 instead of simulating (experiment F1).
//
// Usage:
//
//	megadcsim                          # default scenario, 1 simulated hour
//	megadcsim -pods 8 -servers 16      # bigger data center
//	megadcsim -apps 64 -duration 7200  # more apps, longer run
//	megadcsim -flash 0                 # flash-crowd the most popular app
//	megadcsim -knobs C,D               # enable only some knobs (A..F; empty = all)
//	megadcsim -policy power-of-2       # swap the control policy (internal/policy, DESIGN.md §15)
//	megadcsim -print-topology          # Figure 1 structural dump
//	megadcsim -fail server,switch,link # inject failures mid-run
//	megadcsim -churn                   # continuous MTBF/MTTR fault churn with repair
//	megadcsim -churn -churn-flap       # add link flapping to the churn
//	megadcsim -sessions                # drive discrete sessions instead of fluid demand
//	megadcsim -requests                # request-level workload: per-switch queues, per-request latency
//	megadcsim -requests -req-rate 500 -req-queue 200   # explicit arrival rate and queue bound
//	megadcsim -energy                  # attach the consolidation knob and report energy
//	megadcsim -audit 10                # check conservation laws every 10 Propagate calls
//	megadcsim -trace                   # flight-recorder tracing (DESIGN.md §10)
//	megadcsim -trace -trace-events ev.log -trace-ts ts.csv   # export the artifacts
//	megadcsim -demand-trace wl.txt     # drive app 0's demand from a workload trace file
//	megadcsim -spans                   # control-plane latency histograms (DESIGN.md §11)
//	megadcsim -serialize               # serialized switch-reconfiguration pipeline (queue waits)
//	megadcsim -ctrl                    # fallible async control plane (DESIGN.md §12)
//	megadcsim -ctrl -ctrl-delay 2 -ctrl-loss 0.05   # delayed, lossy control messages
//	megadcsim -ctrl -churn -ctrl-partition-mtbf 1200  # pod partitions with the churn
//	megadcsim -http localhost:8080     # live /metrics, /healthz, /audit, /debug/pprof/
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"megadc/internal/causal"
	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/energy"
	"megadc/internal/faults"
	"megadc/internal/metrics"
	"megadc/internal/obs"
	"megadc/internal/profiling"
	"megadc/internal/requests"
	"megadc/internal/runconfig"
	"megadc/internal/sessions"
	"megadc/internal/spans"
	"megadc/internal/workload"
)

func main() {
	run := runconfig.Register(flag.CommandLine, 0)
	run.RegisterPlatform(flag.CommandLine)
	var (
		apps        = flag.Int("apps", 16, "applications to onboard")
		duration    = flag.Float64("duration", 3600, "simulated seconds")
		flash       = flag.Int("flash", -1, "app index to hit with a 10× flash crowd (-1: none)")
		printTopo   = flag.Bool("print-topology", false, "validate and print the Figure 1 topology, then exit")
		failures    = flag.String("fail", "", "comma-separated failures to inject mid-run: server, switch, link")
		churn       = flag.Bool("churn", false, "continuous MTBF/MTTR fault injection with detection delay and repair")
		churnMTBF   = flag.Float64("churn-server-mtbf", 2000, "mean time between server failures (s); switch/link MTBFs scale from it")
		churnMTTR   = flag.Float64("churn-mttr", 180, "mean time to repair a failed server (s)")
		churnDetect = flag.Float64("churn-detect", 15, "delay between a fault and the control plane detecting it (s)")
		churnFlap   = flag.Bool("churn-flap", false, "add link flapping episodes to the churn")
		useSess     = flag.Bool("sessions", false, "drive discrete client sessions instead of fluid demand")
		useReqs     = flag.Bool("requests", false, "drive discrete requests through per-switch queues with per-request latency (DESIGN.md §14)")
		reqRate     = flag.Float64("req-rate", 0, "with -requests: total request arrival rate (req/s; 0 = 60% of derived service capacity)")
		reqQueue    = flag.Int("req-queue", 1000, "with -requests: per-switch bounded FIFO queue capacity")
		reqCPU      = flag.Float64("req-cpu", 0.005, "with -requests: mean CPU-seconds one request costs a backend")
		reqService  = flag.String("req-service", "exponential", "with -requests: service-time distribution (exponential|deterministic)")
		useEnergy   = flag.Bool("energy", false, "attach the consolidation knob and report energy")
		traceFile   = flag.String("demand-trace", "", "drive the most popular app's demand from a trace file (lines: 'time rate-multiplier')")
		useSpans    = flag.Bool("spans", false, "record control-plane latency histograms (queue waits, drains, fault latencies; DESIGN.md §11)")
		obsFlags    = profiling.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()
	// The churn flags configure the fault injector (partitions are a
	// churn fault class): without -churn none runs, and without a
	// partition MTBF no partition heals. The request flags shape the
	// request engine -requests attaches.
	if err := runconfig.CheckPairs(flag.CommandLine,
		runconfig.Pair{Needs: "churn", Flags: []string{"churn-server-mtbf", "churn-mttr", "churn-detect", "churn-flap",
			"ctrl-partition-mtbf", "ctrl-partition-mttr"}},
		runconfig.Pair{Needs: "ctrl-partition-mtbf", Flags: []string{"ctrl-partition-mttr"}},
		runconfig.Pair{Needs: "requests", Flags: []string{"req-rate", "req-queue", "req-cpu", "req-service"}},
	); err != nil {
		fmt.Fprintln(os.Stderr, "megadcsim:", err)
		os.Exit(1)
	}

	obsSession, err := obsFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "megadcsim:", err)
		os.Exit(1)
	}
	defer obsSession.Stop()
	stopProf := obsSession.Stop
	if obsSession.Obs != nil {
		fmt.Printf("observability: http://%s/metrics\n\n", obsSession.Obs.Addr())
	}

	// The metrics registry backs the bus, span and causal histograms and
	// the live /metrics page.
	reg := metrics.NewRegistry()
	topo, cfg, err := run.Platform(reg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "megadcsim:", err)
		os.Exit(2)
	}
	rec := cfg.Trace
	// Span tracking rides on the flight recorder's event hook (a
	// recorder is created implicitly when -spans is given without
	// -trace).
	var tracker *spans.Tracker
	if *useSpans {
		tracker = spans.New(reg)
		cfg.Spans = tracker
	}
	// Decision provenance (DESIGN.md §16): with tracing on, assemble
	// per-decision span trees and feed the causal.* metric families.
	var asm *causal.Assembler
	if rec != nil {
		asm = causal.New(reg)
		cfg.Causal = asm
	}

	p, err := core.NewPlatform(topo, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "megadcsim:", err)
		os.Exit(1)
	}

	if *printTopo {
		printTopology(p, topo)
		return
	}

	// Onboard a Zipf-popular application mix at ~55% aggregate load.
	weights := workload.ZipfWeights(*apps, 0.9)
	totalCPU := 0.55 * topo.ServerCapacity.CPU * float64(topo.Pods*topo.ServersPerPod)
	// Offered bandwidth fits whichever is tighter: the access links or
	// the LB fabric aggregate.
	linkAgg := topo.LinkMbps * float64(topo.ISPs*topo.LinksPerISP)
	fabricAgg := topo.SwitchLimits.ThroughputMbps * float64(topo.Switches)
	totalMbps := 0.55 * linkAgg
	if 0.55*fabricAgg < totalMbps {
		totalMbps = 0.55 * fabricAgg
	}
	slice := cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}
	var appIDs []cluster.AppID
	var drv *sessions.Driver
	if *useSess {
		var err error
		drv, err = sessions.NewDriver(p, sessions.DefaultConfig())
		if err != nil {
			fmt.Fprintln(os.Stderr, "megadcsim:", err)
			os.Exit(1)
		}
		drv.StopAt = *duration
	}
	for i := 0; i < *apps; i++ {
		demand := core.Demand{CPU: totalCPU * weights[i], Mbps: totalMbps * weights[i]}
		if *useSess {
			demand = core.Demand{}
		}
		a, err := p.OnboardApp(fmt.Sprintf("app-%02d", i), slice, 3, demand)
		if err != nil {
			fmt.Fprintln(os.Stderr, "megadcsim: onboarding:", err)
			os.Exit(1)
		}
		appIDs = append(appIDs, a.ID)
		if *useSess {
			// Arrival rate sized so the mean session load matches the
			// fluid demand the app would otherwise have had.
			tpl := sessions.DefaultConfig().Template
			rate := totalMbps * weights[i] / (tpl.Mbps * tpl.MeanDuration)
			if err := drv.AddApp(a.ID, workload.Constant(rate)); err != nil {
				fmt.Fprintln(os.Stderr, "megadcsim:", err)
				os.Exit(1)
			}
		}
	}
	var reqEng *requests.Engine
	if *useReqs {
		dist, err := requests.ParseServiceDist(*reqService)
		if err != nil {
			fmt.Fprintln(os.Stderr, "megadcsim:", err)
			os.Exit(2)
		}
		rcfg := requests.DefaultConfig()
		rcfg.QueueCap = *reqQueue
		rcfg.CPUPerRequest = *reqCPU
		rcfg.Service = dist
		rcfg.Registry = reg
		rcfg.StopAt = *duration
		rate := *reqRate
		if rate <= 0 {
			// 60% of the aggregate derived service capacity: apps × 3
			// instances × 1-core slices, served at 1/CPUPerRequest each.
			rate = 0.6 * float64(*apps*3) * slice.CPU / *reqCPU
		}
		rcfg.Profile = workload.Constant(rate)
		reqEng, err = requests.New(p, rcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "megadcsim:", err)
			os.Exit(1)
		}
		if err := reqEng.AddAppsZipf(appIDs, 0.9); err != nil {
			fmt.Fprintln(os.Stderr, "megadcsim:", err)
			os.Exit(1)
		}
		if err := reqEng.Start(); err != nil {
			fmt.Fprintln(os.Stderr, "megadcsim:", err)
			os.Exit(1)
		}
		fmt.Printf("request engine: %.0f req/s over %d apps, queue cap %d, %s service, %.3f CPU·s/req\n\n",
			rate, len(appIDs), *reqQueue, dist, *reqCPU)
	}
	var meter *energy.Meter
	var cons *energy.Consolidator
	if *useEnergy {
		meter = energy.NewMeter(p, energy.DefaultPowerModel())
		cons = energy.NewConsolidator(p)
		cons.Attach(meter, 120, 60)
	}
	if *failures != "" {
		scheduleFailures(p, *failures, *duration)
	}
	var inj *faults.Injector
	var mon *faults.Monitor
	if *churn {
		fc := faults.DefaultConfig()
		fc.Server = faults.Class{MTBF: *churnMTBF, MTTR: *churnMTTR, DetectDelay: *churnDetect}
		fc.Switch = faults.Class{MTBF: 4 * *churnMTBF, MTTR: 2 * *churnMTTR, DetectDelay: *churnDetect}
		fc.Link = faults.Class{MTBF: 3 * *churnMTBF, MTTR: 1.5 * *churnMTTR, DetectDelay: *churnDetect / 2}
		if *churnFlap {
			fc.Flap = faults.FlapConfig{MTBF: 3 * *churnMTBF, Cycles: 3, Down: 2, Up: 8}
		}
		if run.CtrlPartitionMTBF != 0 { // NaN and negatives reach Validate
			fc.Partition = faults.Class{MTBF: run.CtrlPartitionMTBF, MTTR: run.CtrlPartitionMTTR}
		}
		if err := fc.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "megadcsim:", err)
			os.Exit(1)
		}
		inj = faults.New(p, fc)
		mon = faults.NewMonitor(p, 0.95, 10)
		inj.Start(*duration)
		mon.Start(*duration)
	}
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "megadcsim:", err)
			os.Exit(1)
		}
		tr, err := workload.ParseTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "megadcsim:", err)
			os.Exit(1)
		}
		target := appIDs[0]
		base := p.AppDemand(target)
		if base == (core.Demand{}) {
			base = core.Demand{CPU: totalCPU * weights[0], Mbps: totalMbps * weights[0]}
		}
		p.DriveDemand(target, tr, base, 30, *duration)
		fmt.Printf("trace %q drives app 0's demand (%d breakpoints)\n\n", *traceFile, tr.Len())
	}
	if *flash >= 0 && *flash < len(appIDs) {
		target := appIDs[*flash]
		base := p.AppDemand(target)
		p.DriveDemand(target, workload.FlashCrowd{
			Base: 1, Peak: 10, Start: *duration * 0.25, Ramp: *duration * 0.05, Hold: *duration * 0.3,
		}, base, 30, *duration)
		fmt.Printf("flash crowd armed on app %d (10× at t=%.0fs)\n\n", *flash, *duration*0.25)
	}

	// Live observability: sync the registry and publish a consistent
	// page from the simulation goroutine. The timer consumes no
	// randomness, so it does not perturb the seeded run.
	if mon != nil {
		reg.RegisterAvailability("faults.availability", mon.Avail)
	}
	publish := func() {
		p.PublishMetrics(reg)
		if obsSession.Obs == nil {
			return
		}
		st := obs.Status{
			SimTime:         p.Eng.Now(),
			AuditViolations: len(p.AuditViolations()),
		}
		if tracker != nil {
			st.OpenLifecycles = tracker.OpenLifecycles()
		}
		if vs := p.AuditViolations(); len(vs) > 0 {
			var sb strings.Builder
			for _, v := range vs {
				sb.WriteString(v.String())
				sb.WriteByte('\n')
			}
			st.AuditReport = sb.String()
		}
		if asm != nil {
			var sb strings.Builder
			asm.WriteAll(&sb)
			st.CausalReport = sb.String()
		}
		obsSession.Obs.Publish(reg, st)
	}

	p.Start()
	reportEvery := *duration / 6
	p.Eng.Every(reportEvery, reportEvery, func() bool {
		report(p)
		return p.Eng.Now() < *duration
	})
	const publishEvery = 30
	p.Eng.Every(publishEvery, publishEvery, func() bool {
		publish()
		return p.Eng.Now() < *duration
	})
	p.Eng.RunUntil(*duration)
	publish()

	fmt.Println("=== final state ===")
	report(p)
	if drv != nil {
		st := drv.TotalStats()
		fmt.Printf("sessions: %d started, %d completed, %d broken, %d rejected\n",
			st.Started, st.Completed, st.Broken, st.Rejected)
	}
	if reqEng != nil {
		st := reqEng.Stats()
		lat := reg.Histogram("requests.latency.all")
		fmt.Printf("requests: %d generated, %d served, %d dropped, %d no-exposure, %d pending\n",
			st.Generated, st.Served, st.Dropped, st.NoExposure, reqEng.Pending())
		if lat.Count() > 0 {
			fmt.Printf("request latency: p50=%.4fs p99=%.4fs p99.9=%.4fs max=%.4fs\n",
				lat.Quantile(0.5), lat.Quantile(0.99), lat.Quantile(0.999), lat.Max())
		}
	}
	if meter != nil {
		fmt.Printf("energy: %.1f kWh (avg %.0f W); %d servers off, %d power cycles\n",
			meter.EnergyWh(*duration)/1000, meter.AverageWatts(*duration),
			cons.PoweredOff(), cons.PowerOffs+cons.PowerOns)
	}
	if mon != nil {
		mon.Finish()
		av := mon.Avail
		ttr := av.AllRecoveries()
		fmt.Printf("churn: %d faults (%d server, %d switch, %d link, %d flap cycles), %d detected, %d repaired, %d skipped\n",
			inj.Faults(), inj.ServerFaults, inj.SwitchFaults, inj.LinkFaults, inj.FlapCycles,
			inj.Detections, inj.Repairs, inj.Skipped)
		if inj.PodPartitions > 0 || inj.PartitionHeals > 0 {
			fmt.Printf("partitions: %d opened, %d healed\n", inj.PodPartitions, inj.PartitionHeals)
		}
		fmt.Printf("availability: mean uptime %.4f, %d outages, %.0f s total downtime, %.0f core·s unserved, TTR p50=%.0fs p95=%.0fs\n",
			av.MeanUptime(*duration), av.TotalOutages(), av.TotalDowntime(), av.TotalUnserved(),
			ttr.Quantile(0.5), ttr.Quantile(0.95))
	}
	if b := p.Ctrl(); b.Enabled() {
		var deferred, reconciled, dropped int64
		for _, pm := range p.PodManagers() {
			deferred += pm.Deferred
			reconciled += pm.Reconciled
			dropped += pm.DroppedStale
		}
		fmt.Printf("ctrlplane: sent=%d casts=%d delivered=%d retries=%d dropped=%d deduped=%d "+
			"dead_letters=%d stale_writes=%d deferred=%d reconciled=%d dropped_stale=%d\n",
			b.Sent, b.Casts, b.Delivered, b.Retries, b.Dropped, b.Deduped,
			b.DeadLetters, p.DNS.StaleWrites, deferred, reconciled, dropped)
	}
	if tracker != nil {
		printSpanSummary(reg)
	}
	if rec != nil {
		if err := run.Export(rec); err != nil {
			fmt.Fprintln(os.Stderr, "megadcsim:", err)
			stopProf()
			os.Exit(1)
		}
		fmt.Printf("trace: %d events recorded (%d in ring), %d time-series samples\n",
			rec.Total(), rec.Len(), rec.TS.Len())
		if asm != nil {
			fmt.Printf("causal: %d decision trees assembled (%d abandoned)\n",
				len(asm.Causes()), asm.Abandoned())
		}
	}
	if err := p.AuditErr(); err != nil {
		fmt.Fprintln(os.Stderr, "megadcsim: AUDIT VIOLATION:", err)
		stopProf()
		os.Exit(1)
	}
	if run.Audit > 0 {
		fmt.Println("invariants: ok (audited)")
	} else {
		fmt.Println("invariants: ok")
	}
}

// printSpanSummary prints every populated latency histogram: the
// control-plane percentiles the span layer measured over the run.
func printSpanSummary(reg *metrics.Registry) {
	fmt.Println("control-plane latency (seconds):")
	printed := false
	reg.Each(func(name string, m any) {
		h, ok := m.(*metrics.Histogram)
		if !ok || h.Count() == 0 {
			return
		}
		printed = true
		fmt.Printf("  %-32s n=%-6d p50=%-8.2f p90=%-8.2f p99=%-8.2f max=%.2f\n",
			name, h.Count(), h.Quantile(0.5), h.Quantile(0.9), h.Quantile(0.99), h.Max())
	})
	if !printed {
		fmt.Println("  (no lifecycles completed)")
	}
}

// scheduleFailures injects the requested failures at 40%, 55%, and 70%
// of the run.
func scheduleFailures(p *core.Platform, spec string, duration float64) {
	at := duration * 0.40
	for _, kind := range strings.Split(spec, ",") {
		kind := strings.TrimSpace(strings.ToLower(kind))
		t := at
		switch kind {
		case "server":
			p.Eng.At(t, func() {
				victim := p.Cluster.ServerIDs()[0]
				lost, err := p.FailServer(victim)
				fmt.Printf("t=%6.0fs INJECTED server %d failure: %d VMs lost (err=%v)\n", t, victim, lost, err)
			})
		case "switch":
			p.Eng.At(t, func() {
				rehomed, dropped, err := p.FailSwitch(0)
				fmt.Printf("t=%6.0fs INJECTED switch 0 failure: %d VIPs re-homed, %d dropped (err=%v)\n",
					t, rehomed, dropped, err)
			})
		case "link":
			p.Eng.At(t, func() {
				readv, err := p.FailLink(0)
				fmt.Printf("t=%6.0fs INJECTED link 0 failure: %d VIPs re-advertised (err=%v)\n", t, readv, err)
			})
		default:
			fmt.Fprintf(os.Stderr, "megadcsim: unknown failure %q\n", kind)
			os.Exit(2)
		}
		at += duration * 0.15
	}
}

func report(p *core.Platform) {
	var podUtils []float64
	for _, pm := range p.PodManagers() {
		podUtils = append(podUtils, pm.Utilization())
	}
	fmt.Printf("t=%6.0fs satisfaction=%.3f podUtil(max=%.2f cov=%.2f) linkUtil(max=%.2f) swUtil(max=%.2f) "+
		"transfers=%d deploys=%d resizes=%d exposure=%d\n",
		p.Eng.Now(), p.TotalSatisfaction(),
		maxOf(podUtils), metrics.CoefficientOfVariation(podUtils),
		maxOf(p.Net.LinkUtilizations()), maxOf(p.Fabric.Utilizations()),
		p.Global.ServerTransfers, p.Global.Deployments, totalResizes(p), p.Global.ExposureChanges)
}

func totalResizes(p *core.Platform) int64 {
	var n int64
	for _, pm := range p.PodManagers() {
		n += pm.Resizes
	}
	return n
}

func maxOf(xs []float64) float64 {
	var m float64
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}

// printTopology dumps the Figure 1 component graph: access routers →
// access links → border routers → LB switches → (full-bisection fabric)
// → pods of servers, plus the control plane.
func printTopology(p *core.Platform, topo core.Topology) {
	fmt.Println("Figure 1 — data center architecture")
	fmt.Println()
	fmt.Println("Access connection layer:")
	for _, l := range p.Net.Links() {
		r := p.Net.Router(l.Router)
		fmt.Printf("  AR%d (%s) --link%d (%.0f Mbps)--> BR%d\n", r.ID, r.ISP, l.ID, l.CapacityMbps, l.Border)
	}
	fmt.Println()
	fmt.Println("Load-balancing layer (every switch reaches every border router):")
	for _, sw := range p.Fabric.Switches() {
		fmt.Printf("  LB switch %d: %d/%d VIPs, %d/%d RIPs, %.0f Mbps\n",
			sw.ID, sw.NumVIPs(), sw.Limits.MaxVIPs, sw.NumRIPs(), sw.Limits.MaxRIPs, sw.Limits.ThroughputMbps)
	}
	fmt.Println()
	fmt.Println("Existing interconnection (L2/L3 full-bisection fabric) connects switches to all servers")
	fmt.Println()
	fmt.Println("Server pods (logical):")
	for _, pm := range p.PodManagers() {
		pod := p.Cluster.Pod(pm.PodID())
		fmt.Printf("  pod %d: %d servers (%v each), pod manager attached\n",
			pm.PodID(), pod.NumServers(), topo.ServerCapacity)
	}
	fmt.Println()
	fmt.Println("Global manager: access-link LB, LB-switch LB, inter-pod LB, VIP/RIP manager")
	if err := p.AuditErr(); err != nil {
		fmt.Println("TOPOLOGY INVALID:", err)
		os.Exit(1)
	}
	fmt.Println("topology invariants: ok")
}
