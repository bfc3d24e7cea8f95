package main

// The three workloads. Each one stresses a different part of the
// simulator, and sizes are chosen so that one round (set-up, run,
// verification) takes a few seconds on a 2-core machine:
//
//   - elastic: the 1K-server full run of megadcsim with every subsystem
//     on. It is heavy on control actions: VIP transfers, deployments,
//     server transfers, resizes and exposure changes fire, the lossy
//     bus retries, faults churn, observers record.
//   - requests: the request path alone on 10K LB switches, every switch
//     queue live at load 0.6. Managers, faults, bus and observers are
//     off.
//   - scale100k: the data path at 100K servers. A benchmark timer
//     changes 2,000 app demands per simulated second (incremental
//     Propagate) and forces a full recompute every minute.

import (
	"fmt"
	"math/rand"
	"runtime"

	"megadc/internal/causal"
	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/ctrlplane"
	"megadc/internal/faults"
	"megadc/internal/metrics"
	"megadc/internal/requests"
	"megadc/internal/spans"
	"megadc/internal/trace"
	"megadc/internal/workload"
)

// options select one workload instance. small shrinks every size for
// the package tests.
type options struct {
	seed  int64
	small bool
}

type workloadDef struct {
	name  string
	setup func(o options, tr *tracer) (*instance, error)
}

var workloads = []workloadDef{
	{"elastic", setupElastic},
	{"requests", setupRequests},
	{"scale100k", setupScale},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// instance is one built workload, ready to run until end.
type instance struct {
	p   *core.Platform
	reg *metrics.Registry
	req *requests.Engine
	inj *faults.Injector
	end float64

	// updates counts SetAppDemand calls made by benchmark timers.
	updates int64

	tr *tracer // nil on untimed runs
}

// observedConfig turns on every subsystem of a realistic run, as
// megadcsim -serialize -trace -spans -ctrl -ctrl-delay 0.5
// -ctrl-jitter 0.2 -ctrl-loss 0.02 does. The pod-utilization snapshot
// stays off: the traced run re-creates Platform.Start without it.
func observedConfig(reg *metrics.Registry) core.Config {
	cfg := core.DefaultConfig()
	cfg.SerializeReconfig = true
	cfg.Trace = trace.NewRecorder(trace.DefaultRingSize)
	cfg.Spans = spans.New(reg)
	cfg.Causal = causal.New(reg)
	cfg.Ctrl.Enable = true
	cfg.Ctrl.Default = ctrlplane.LinkConfig{Delay: 0.5, Jitter: 0.2, LossProb: 0.02}
	cfg.Ctrl.Registry = reg
	return cfg
}

// churnConfig is megadcsim -churn -ctrl-partition-mtbf 1200, scaled from
// the per-server MTBF: switches fail 4× and links 3× less often.
func churnConfig(serverMTBF float64) faults.Config {
	const mttr, detect = 180, 15
	fc := faults.DefaultConfig()
	fc.Server = faults.Class{MTBF: serverMTBF, MTTR: mttr, DetectDelay: detect}
	fc.Switch = faults.Class{MTBF: 4 * serverMTBF, MTTR: 2 * mttr, DetectDelay: detect}
	fc.Link = faults.Class{MTBF: 3 * serverMTBF, MTTR: 1.5 * mttr, DetectDelay: detect / 2}
	fc.Partition = faults.Class{MTBF: 1200, MTTR: 120}
	return fc
}

// flash is the flash-crowd shape megadcsim -flash uses, peaking at peak×.
func flash(peak, dur float64) workload.FlashCrowd {
	return workload.FlashCrowd{Base: 1, Peak: peak, Start: dur * 0.25, Ramp: dur * 0.05, Hold: dur * 0.3}
}

func setupElastic(o options, tr *tracer) (*instance, error) {
	pods, servers, switches, apps, rate, dur := 16, 64, 16, 512, 200.0, 900.0
	if o.small {
		pods, servers, switches, apps, rate, dur = 4, 8, 4, 32, 50, 600
	}
	topo := core.SmallTopology()
	topo.Pods, topo.ServersPerPod, topo.Switches, topo.ISPs, topo.Seed = pods, servers, switches, 4, o.seed
	// Requests keep draining for a minute after arrivals stop: with
	// three instances per app, a queue can wait out a server repair.
	in := &instance{reg: metrics.NewRegistry(), end: dur + 60, tr: tr}
	p, err := core.NewPlatform(topo, observedConfig(in.reg))
	if err != nil {
		return nil, err
	}
	in.p = p
	in.observe()

	// A Zipf-popular mix at ~55% aggregate load, as megadcsim onboards it.
	weights := workload.ZipfWeights(apps, 0.9)
	totalCPU := 0.55 * topo.ServerCapacity.CPU * float64(pods*servers)
	totalMbps := 0.55 * min(topo.LinkMbps*float64(topo.ISPs*topo.LinksPerISP),
		topo.SwitchLimits.ThroughputMbps*float64(switches))
	slice := cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}
	ids := make([]cluster.AppID, apps)
	for i := range ids {
		d := core.Demand{CPU: totalCPU * weights[i], Mbps: totalMbps * weights[i]}
		var a *cluster.Application
		tr.do(layerOnboard, func() { a, err = p.OnboardApp(fmt.Sprintf("app-%02d", i), slice, 3, d) })
		if err != nil {
			return nil, fmt.Errorf("onboarding app %d: %w", i, err)
		}
		ids[i] = a.ID
	}
	rcfg := requests.DefaultConfig()
	rcfg.Profile = workload.Constant(rate)
	rcfg.StopAt = dur
	if err := in.startRequests(rcfg, ids, true); err != nil {
		return nil, err
	}
	in.startChurn(churnConfig(2000), dur)
	in.driveDemand(ids[0], flash(10, dur), p.AppDemand(ids[0]), 30, dur)
	in.start()
	return in, nil
}

func setupRequests(o options, tr *tracer) (*instance, error) {
	switches, rate, dur := 10000, 20000.0, 30.0
	if o.small {
		switches, rate, dur = 500, 1000, 30
	}
	// One app per switch with two quarter-core instances: each switch
	// serves 0.5/0.15 ≈ 3.3 req/s and receives 2 req/s.
	spec := core.ScaleSpec{
		Servers:         max(switches/2, 32),
		Apps:            switches,
		InstancesPerApp: 2,
		VIPsPerApp:      1,
		Seed:            o.seed,
		Demand:          core.Demand{CPU: 1, Mbps: 2},
		Slice:           cluster.Resources{CPU: 0.25, MemMB: 64, NetMbps: 5},
	}
	topo := spec.Topology()
	topo.Switches = switches
	topo.SwitchPods = (switches + 31) / 32
	cfg := core.DefaultConfig()
	cfg.VIPsPerApp = spec.VIPsPerApp
	cfg.PropagateFullEvery = -1
	in := &instance{reg: metrics.NewRegistry(), end: dur + 20, tr: tr} // nothing fails, so queues drain fast
	if err := in.bulkBuild(spec, topo, cfg); err != nil {
		return nil, err
	}
	rcfg := requests.DefaultConfig()
	rcfg.Profile = workload.Constant(rate)
	rcfg.CPUPerRequest = 0.15
	rcfg.Population = 4
	rcfg.StopAt = dur
	if err := in.startRequests(rcfg, appIDs(spec.Apps), false); err != nil {
		return nil, err
	}
	return in, nil
}

func setupScale(o options, tr *tracer) (*instance, error) {
	servers, perSecond, dur := 100000, 2000, 60.0
	if o.small {
		servers, perSecond, dur = 2000, 200, 60
	}
	spec := core.ScaleSpecFor(servers)
	spec.Seed = o.seed
	in := &instance{reg: metrics.NewRegistry(), end: dur, tr: tr}
	var err error
	tr.do(layerBulkBuild, func() { in.p, err = core.BuildScalePlatform(spec) })
	if err != nil {
		return nil, err
	}
	p := in.p
	rng := rand.New(rand.NewSource(o.seed))
	pick := workload.NewSampler(workload.ZipfWeights(spec.Apps, 0.9))
	p.Eng.Every(1, 1, func() bool {
		for i := 0; i < perSecond; i++ {
			app := cluster.AppID(pick.Pick(rng))
			d := spec.Demand.Scale(0.8 + 0.4*rng.Float64())
			tr.do(layerDemandSet, func() { p.SetAppDemand(app, d) })
		}
		in.updates += int64(perSecond)
		return p.Eng.Now() < dur
	})
	// BuildScalePlatform turns the periodic full recompute off; this
	// timer stands in for that safety net.
	p.Eng.Every(60, 60, func() bool {
		in.propagateFull()
		return p.Eng.Now() < dur
	})
	return in, nil
}

func appIDs(n int) []cluster.AppID {
	ids := make([]cluster.AppID, n)
	for i := range ids {
		ids[i] = cluster.AppID(i)
	}
	return ids
}

// bulkBuild constructs the platform and bulk-onboards spec's apps.
func (in *instance) bulkBuild(spec core.ScaleSpec, topo core.Topology, cfg core.Config) error {
	var err error
	in.tr.do(layerBulkBuild, func() {
		in.p, err = core.NewPlatform(topo, cfg)
		if err != nil {
			return
		}
		err = in.p.OnboardAppsBulk(spec)
	})
	return err
}

func (in *instance) startRequests(cfg requests.Config, apps []cluster.AppID, zipf bool) error {
	cfg.Registry = in.reg
	e, err := requests.New(in.p, cfg)
	if err != nil {
		return err
	}
	if zipf {
		err = e.AddAppsZipf(apps, 0.9)
	} else {
		for _, a := range apps {
			if err = e.AddApp(a, 1); err != nil {
				break
			}
		}
	}
	if err != nil {
		return err
	}
	in.req = e
	return e.Start()
}

func (in *instance) startChurn(fc faults.Config, stopAt float64) {
	in.inj = faults.New(in.p, fc)
	faults.NewMonitor(in.p, 0.95, 10).Start(stopAt)
	in.inj.Start(stopAt)
}

// The methods below are the traced run's stand-ins for platform calls:
// each schedules or makes exactly what the platform call would, in the
// same order, and times the call into the layer. Untimed runs make the
// platform call itself.

// observe replaces the recorder's observer fan-out with a timed one
// that calls the span tracker and then the causal assembler, as
// NewPlatform wires them.
func (in *instance) observe() {
	rec, tr := in.p.Cfg.Trace, in.tr
	if tr == nil || rec == nil {
		return
	}
	sp, ca := in.p.Cfg.Spans, in.p.Cfg.Causal
	rec.OnEvent = func(e *trace.Event) {
		if sp != nil {
			tr.begin(layerSpans)
			sp.Handle(e)
			tr.end()
		}
		if ca != nil {
			tr.begin(layerCausal)
			ca.Handle(e)
			tr.end()
		}
	}
}

// start is Platform.Start: pod steps, then the global step, then the
// time-series sampler that trace.NewRecorder enables by default.
func (in *instance) start() {
	p, tr := in.p, in.tr
	if tr == nil {
		p.Start()
		return
	}
	for _, pm := range p.PodManagers() {
		pm := pm
		p.Eng.Every(p.Cfg.PodControlInterval, p.Cfg.PodControlInterval, func() bool {
			tr.do(layerPodStep, pm.Step)
			return true
		})
	}
	p.Eng.Every(p.Cfg.GlobalControlInterval, p.Cfg.GlobalControlInterval, func() bool {
		tr.do(layerGlobalStep, p.Global.Step)
		return true
	})
	if rec := p.Cfg.Trace; rec != nil && rec.TS != nil {
		iv := p.Cfg.TraceSampleEvery
		if iv <= 0 {
			iv = p.Cfg.PodControlInterval
		}
		p.Eng.Every(0, iv, func() bool {
			tr.do(layerTraceSample, p.TraceSample)
			return true
		})
	}
}

// driveDemand is Platform.DriveDemand.
func (in *instance) driveDemand(app cluster.AppID, prof workload.Profile, perUnit core.Demand, interval, stopAt float64) {
	p, tr := in.p, in.tr
	if tr == nil {
		p.DriveDemand(app, prof, perUnit, interval, stopAt)
		return
	}
	p.Eng.Every(0, interval, func() bool {
		d := perUnit.Scale(prof.RateAt(p.Eng.Now()))
		tr.do(layerDemandSet, func() { p.SetAppDemand(app, d) })
		return stopAt <= 0 || p.Eng.Now() < stopAt
	})
}

// propagateFull is Platform.PropagateFull; traced, it also counts the
// heap allocations the call makes.
func (in *instance) propagateFull() {
	tr := in.tr
	if tr == nil {
		in.p.PropagateFull()
		return
	}
	var ms runtime.MemStats
	tr.begin(layerPropagateFull)
	runtime.ReadMemStats(&ms)
	before := ms.Mallocs
	in.p.PropagateFull()
	runtime.ReadMemStats(&ms)
	tr.end()
	tr.fullAllocs += ms.Mallocs - before
}
