// Package requests is the request-level workload engine: an open-loop
// generator of discrete client requests that experience genuine
// queueing. Sessions (internal/sessions) model long-lived flows as
// fluid demand overlays; requests model the individual RPCs the paper's
// elastic Internet applications actually serve. Each generated request
// picks an application by Zipf popularity, resolves it through the
// platform's DNS (TTL caches, violators and all), lands in its home LB
// switch's bounded FIFO queue, waits behind the requests ahead of it,
// holds a service slot for a drawn service time, and finally records
// its end-to-end latency — queue wait plus service — in per-app
// histograms (internal/metrics) that the /metrics endpoint exports.
//
// The queue's service rate is not configured, it is *derived*: each
// switch serves at healthyBackendCPU / CPUPerRequest requests per
// second (core.BackendScan), so a server failure, a drain, or a pod
// partition slows the queue and the p99 visibly degrades — the
// tail-latency coupling the request-latency experiments (E17) measure.
// The platform memoizes each switch's backend CPU behind generation
// counters, so a refresh rescans only the switches whose backends
// changed (DESIGN.md §21).
//
// Determinism: the engine draws every sample from its own seeded RNG
// (the ctrlplane idiom), so enabling requests never shifts the
// platform's main random stream — a run with the engine attached is
// byte-identical in every non-request observable to the same run
// without it. Event ordering is the sim engine's (time, seq) order, so
// identical seeds yield byte-identical request streams and histograms.
package requests

import (
	"fmt"
	"math"
	"math/rand"
	"unsafe"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/dnsctl"
	"megadc/internal/lbswitch"
	"megadc/internal/metrics"
	"megadc/internal/workload"
)

// ServiceDist selects the service-time distribution shape. The mean is
// always 1/µ where µ is the switch's derived service rate; the shape
// controls the variance around it.
type ServiceDist int

const (
	// ServiceExponential draws exponential service times (M/M/1-style
	// queueing; the default).
	ServiceExponential ServiceDist = iota
	// ServiceDeterministic uses the exact mean every time (M/D/1 —
	// lower waiting-time variance, sharper knee).
	ServiceDeterministic
)

func (d ServiceDist) String() string {
	switch d {
	case ServiceExponential:
		return "exponential"
	case ServiceDeterministic:
		return "deterministic"
	default:
		return fmt.Sprintf("ServiceDist(%d)", int(d))
	}
}

// ParseServiceDist maps the CLI spelling to a ServiceDist.
func ParseServiceDist(s string) (ServiceDist, error) {
	switch s {
	case "exponential", "exp", "":
		return ServiceExponential, nil
	case "deterministic", "det":
		return ServiceDeterministic, nil
	default:
		return 0, fmt.Errorf("requests: unknown service distribution %q", s)
	}
}

// Config parameterizes one request engine.
type Config struct {
	// Profile is the total request arrival rate λ(t) in requests per
	// second, split across applications by popularity weight. Validated
	// with workload.ValidateProfile at Start.
	Profile workload.Profile
	// QueueCap bounds each switch's FIFO (requests waiting plus the one
	// in service); arrivals beyond it are dropped.
	QueueCap int
	// CPUPerRequest is the mean CPU-seconds one request costs a
	// backend; a switch with C healthy backend cores serves at
	// C/CPUPerRequest requests per second.
	CPUPerRequest float64
	// Service selects the service-time distribution shape.
	Service ServiceDist
	// RefreshEvery is the interval at which each queue's service rate
	// is re-derived from backend health. It is the engine's tick hook:
	// scheduled with Eng.Every, consuming no randomness.
	RefreshEvery float64
	// Population, ViolatorFraction, ViolationHoldSec parameterize the
	// per-app DNS client populations, exactly as in sessions.Config.
	Population       int
	ViolatorFraction float64
	ViolationHoldSec float64
	// Seed seeds the engine's own RNG (0 = derive from the platform's
	// topology seed via an offset, so two subsystems never share one).
	Seed int64
	// StopAt ends arrival generation (0 = run for the whole simulation).
	StopAt float64
	// Registry receives the latency histograms and outcome counters.
	// Required.
	Registry *metrics.Registry
}

// DefaultConfig returns the standard request model: 1,000-deep switch
// queues, 5 ms of CPU per request, exponential service, capacity
// re-derived every second, and the sessions package's default client
// population.
func DefaultConfig() Config {
	return Config{
		QueueCap:         1000,
		CPUPerRequest:    0.005,
		Service:          ServiceExponential,
		RefreshEvery:     1,
		Population:       1000,
		ViolatorFraction: 0.10,
		ViolationHoldSec: 600,
	}
}

// Stats counts request outcomes across the engine.
type Stats struct {
	Generated  int64 // arrivals drawn from the profile
	Enqueued   int64 // admitted to a switch queue
	Served     int64 // completed service (latency recorded)
	Dropped    int64 // rejected: queue full or switch not serving
	NoExposure int64 // DNS had no exposed VIP at arrival
}

// request is one queued request, stored by value in its queue's ring.
type request struct {
	arrived float64 // arrival (enqueue) time
	app     int32   // index into Engine.apps
}

// swQueue is one switch's bounded FIFO plus its single aggregate
// service slot: requests drain at the switch-wide derived rate µ in
// arrival order. buf is a ring that starts empty and doubles, from
// minRing up to Config.QueueCap, when an admitted arrival finds it
// full, so a queue's memory follows its high-water depth rather than
// its bound. The record is 64 bytes, so every queue of Engine.queues
// is one cache line (TestRequestPathLayout).
type swQueue struct {
	buf  []request        // ring, len ≤ Config.QueueCap
	sw   *lbswitch.Switch // nil until the queue is attached
	done func()           // completion callback, bound once when the queue attaches
	mu   float64          // derived service rate, requests/sec
	head int32            // index of the request in service
	n    int32            // occupied slots (including the one in service)
	busy bool             // a completion event is scheduled
}

// minRing is the ring size a queue's first admitted request allocates.
const minRing = 4

// grow doubles the full ring, capped at limit, and copies the live
// requests to its front in FIFO order.
func (q *swQueue) grow(limit int) {
	buf := make([]request, min(max(minRing, 2*len(q.buf)), limit))
	k := copy(buf, q.buf[q.head:])
	copy(buf[k:], q.buf[:q.head])
	q.buf, q.head = buf, 0
}

// cacheLine is the line size the request path's records are laid out for.
const cacheLine = 64

// appRec is one application's request-path state, held in place: its
// DNS client population, which every arrival reads, and its
// requests.latency.app-NN histogram, which every completion writes.
// The population fills the record's first line and the histogram's
// scalars start the second, so an arrival reads one line of the record
// and a completion writes the scalar line and one bucket's line.
type appRec struct {
	pop  dnsctl.ClientPopulation
	_    [(cacheLine - unsafe.Sizeof(dnsctl.ClientPopulation{})%cacheLine) % cacheLine]byte
	hist metrics.Histogram
	_    [(cacheLine - unsafe.Sizeof(metrics.Histogram{})%cacheLine) % cacheLine]byte
}

// appChunk is the number of records in one chunk of Engine.apps. A
// chunk is larger than the allocator's largest size class, so it gets
// pages of its own and every record starts a cache line.
const appChunk = 128

// Engine generates requests against one platform. Construct with New,
// add applications, then Start.
type Engine struct {
	p    *core.Platform
	cfg  Config
	rng  *rand.Rand
	scan *core.BackendScan

	// apps holds the records in fixed-size chunks, record i at
	// apps[i/appChunk][i%appChunk]: a chunk never moves once allocated,
	// so the registry keeps a pointer to each record's histogram.
	apps    [][]appRec
	driven  map[cluster.AppID]bool // apps already added, for AddApp's duplicate check
	weights []float64              // by record index; its length is the number of apps
	sampler *workload.Sampler      // built once at Start; weights are frozen after
	queues  []swQueue              // by SwitchID, sized once in New; sw == nil = not attached yet
	qOrder  []lbswitch.SwitchID    // attach order, for deterministic refresh
	arrival func()                 // pre-bound per-arrival callback: arrive, then schedule the next

	latAll  *metrics.Histogram
	waitAll *metrics.Histogram
	// Outcome counts: served, dropped and no-exposure requests are
	// counted only in their registry counters, which Stats reads.
	generated int64
	enqueued  int64
	cServed   *metrics.Counter
	cDropped  *metrics.Counter
	cNoExpo   *metrics.Counter

	started bool
}

// New builds a request engine on the platform. The configuration is
// validated eagerly; the arrival profile is validated too so a NaN- or
// zero-Period profile fails here instead of silently generating nothing.
func New(p *core.Platform, cfg Config) (*Engine, error) {
	if cfg.Registry == nil {
		return nil, fmt.Errorf("requests: Config.Registry is required")
	}
	if err := workload.ValidateProfile(cfg.Profile); err != nil {
		return nil, err
	}
	if cfg.QueueCap <= 0 {
		return nil, fmt.Errorf("requests: QueueCap %d must be > 0", cfg.QueueCap)
	}
	if cfg.QueueCap > math.MaxInt32 {
		return nil, fmt.Errorf("requests: QueueCap %d must be ≤ %d", cfg.QueueCap, math.MaxInt32)
	}
	if !(cfg.CPUPerRequest > 0) || math.IsInf(cfg.CPUPerRequest, 0) {
		return nil, fmt.Errorf("requests: CPUPerRequest %v must be finite and > 0", cfg.CPUPerRequest)
	}
	if cfg.RefreshEvery <= 0 {
		return nil, fmt.Errorf("requests: RefreshEvery %v must be > 0", cfg.RefreshEvery)
	}
	if cfg.Population <= 0 {
		return nil, fmt.Errorf("requests: Population %d must be > 0", cfg.Population)
	}
	seed := cfg.Seed
	if seed == 0 {
		// Offset so a request engine and a ctrlplane bus seeded from the
		// same topology seed still draw distinct streams.
		seed = p.Seed() + 0x726571 // "req"
	}
	e := &Engine{
		p:        p,
		cfg:      cfg,
		rng:      rand.New(rand.NewSource(seed)),
		scan:     p.NewBackendScan(),
		driven:   make(map[cluster.AppID]bool),
		queues:   make([]swQueue, p.Fabric.NumSwitches()),
		latAll:   cfg.Registry.Histogram("requests.latency.all"),
		waitAll:  cfg.Registry.Histogram("requests.wait.all"),
		cServed:  cfg.Registry.Counter("requests.served"),
		cDropped: cfg.Registry.Counter("requests.dropped"),
		cNoExpo:  cfg.Registry.Counter("requests.no_exposure"),
	}
	e.arrival = func() {
		e.arrive()
		e.scheduleNext()
	}
	return e, nil
}

// AddApp registers an application with the given popularity weight.
// Weights are relative (workload.Sampler); they need not sum to 1.
func (e *Engine) AddApp(app cluster.AppID, weight float64) error {
	if e.started {
		return fmt.Errorf("requests: AddApp after Start")
	}
	if e.driven[app] {
		return fmt.Errorf("requests: app %d already driven", app)
	}
	i := len(e.weights)
	if i == len(e.apps)*appChunk {
		e.apps = append(e.apps, make([]appRec, appChunk))
	}
	r := e.app(i)
	if err := r.pop.Init(e.p.DNS, app, e.cfg.Population,
		e.cfg.ViolatorFraction, e.cfg.ViolationHoldSec, e.rng); err != nil {
		return err
	}
	r.hist.Init()
	e.cfg.Registry.RegisterHistogram(fmt.Sprintf("requests.latency.app-%02d", app), &r.hist)
	e.driven[app] = true
	e.weights = append(e.weights, weight)
	return nil
}

// app returns the record of the i-th added application.
func (e *Engine) app(i int) *appRec {
	return &e.apps[i/appChunk][i%appChunk]
}

// AddAppsZipf registers apps with Zipf(s) popularity: the first app in
// the slice is the most popular.
func (e *Engine) AddAppsZipf(apps []cluster.AppID, s float64) error {
	w := workload.ZipfWeights(len(apps), s)
	for i, app := range apps {
		if err := e.AddApp(app, w[i]); err != nil {
			return err
		}
	}
	return nil
}

// Start begins arrival generation and the periodic capacity refresh.
func (e *Engine) Start() error {
	if e.started {
		return fmt.Errorf("requests: already started")
	}
	if len(e.weights) == 0 {
		return fmt.Errorf("requests: no applications added")
	}
	e.started = true
	// One alias table for the whole run: app popularity is fixed after
	// Start, and the table makes per-arrival app choice O(1) instead of
	// an O(apps) scan. Pick consumes a single draw from the engine's own
	// RNG, so platform determinism is untouched; the draw→index mapping
	// differs from PickWeighted's, so landing this re-pinned the
	// request-stream goldens (CHANGES.md).
	e.sampler = workload.NewSampler(e.weights)
	e.refresh()
	// Every's first argument is an absolute time: offset from Now so an
	// engine started mid-simulation doesn't schedule into the past.
	e.p.Eng.Every(e.p.Eng.Now()+e.cfg.RefreshEvery, e.cfg.RefreshEvery, func() bool {
		e.refresh()
		return e.cfg.StopAt <= 0 || e.p.Eng.Now() < e.cfg.StopAt || e.Pending() > 0
	})
	e.scheduleNext()
	return nil
}

// Stats returns the outcome counters.
func (e *Engine) Stats() Stats {
	return Stats{
		Generated:  e.generated,
		Enqueued:   e.enqueued,
		Served:     e.cServed.Value(),
		Dropped:    e.cDropped.Value(),
		NoExposure: e.cNoExpo.Value(),
	}
}

// RefreshCapacity forces one capacity-refresh pass outside the periodic
// schedule — re-deriving every attached queue's service rate from
// current backend health — for callers that just mutated the topology
// and want queues to react immediately.
func (e *Engine) RefreshCapacity() { e.refresh() }

// AttachedQueues returns how many switch queues the engine has attached
// so far (queues attach lazily, on the first request homed at a switch).
func (e *Engine) AttachedQueues() int { return len(e.qOrder) }

// Pending returns the number of requests currently queued or in service
// across all switches. A request leaves its queue only by being served,
// so this is the sum of the attached queues' depths.
func (e *Engine) Pending() int { return int(e.enqueued - e.cServed.Value()) }

// queueFor returns (attaching on first sight) the queue of switch id.
// The pointer is stable: e.queues is never reallocated.
func (e *Engine) queueFor(id lbswitch.SwitchID) *swQueue {
	q := &e.queues[id]
	if q.sw == nil {
		q.sw = e.p.Fabric.Switch(id)
		q.mu = e.scan.SwitchCPU(id) / e.cfg.CPUPerRequest
		q.done = func() { e.complete(q) }
		e.qOrder = append(e.qOrder, id)
	}
	return q
}

// refresh re-derives every attached queue's service rate from current
// backend health, and restarts service on queues that stalled at µ = 0.
// Iteration follows attach order, so the event sequence is a pure
// function of the run's history. Only switches whose backends changed
// since the last read are rescanned (core.BackendScan's memo); the rest
// return their memoized capacity.
func (e *Engine) refresh() {
	for _, id := range e.qOrder {
		q := &e.queues[id]
		q.mu = e.scan.SwitchCPU(id) / e.cfg.CPUPerRequest
		if !q.busy && q.n > 0 && q.mu > 0 {
			e.startService(q)
		}
	}
}

func (e *Engine) scheduleNext() {
	next := workload.NextArrival(e.cfg.Profile, e.p.Eng.Now(), e.rng)
	if math.IsInf(next, 1) {
		return
	}
	if e.cfg.StopAt > 0 && next > e.cfg.StopAt {
		return
	}
	e.p.Eng.At(next, e.arrival)
}

// arrive handles one request: pick app → resolve VIP → home switch →
// enqueue (or drop).
func (e *Engine) arrive() {
	e.generated++
	now := e.p.Eng.Now()
	app := e.sampler.Pick(e.rng)
	vi, err := e.app(app).pop.Arrive(now, e.rng)
	if err != nil {
		e.cNoExpo.Inc()
		return
	}
	home, ok := e.p.Fabric.Home(vi)
	if !ok {
		e.cNoExpo.Inc()
		return
	}
	q := e.queueFor(home)
	if !q.sw.Serving() || int(q.n) >= e.cfg.QueueCap {
		e.cDropped.Inc()
		q.sw.NoteReqDropped()
		return
	}
	if int(q.n) == len(q.buf) {
		q.grow(e.cfg.QueueCap)
	}
	q.buf[int(q.head+q.n)%len(q.buf)] = request{arrived: now, app: int32(app)}
	q.n++
	e.enqueued++
	q.sw.NoteReqEnqueued()
	if !q.busy && q.mu > 0 {
		e.startService(q)
	}
}

// startService begins serving the head-of-line request: draw a service
// time at the queue's current rate and schedule its completion. The
// wait the request accrued so far is recorded here, where it ends.
func (e *Engine) startService(q *swQueue) {
	q.busy = true
	e.waitAll.Observe(e.p.Eng.Now() - q.buf[q.head].arrived)
	var svc float64
	switch e.cfg.Service {
	case ServiceDeterministic:
		svc = 1 / q.mu
	default:
		svc = e.rng.ExpFloat64() / q.mu
	}
	e.p.Eng.After(svc, q.done)
}

// complete finishes the head-of-line request of q: record end-to-end
// latency, advance the ring, start the next request.
func (e *Engine) complete(q *swQueue) {
	r := q.buf[q.head]
	lat := e.p.Eng.Now() - r.arrived
	e.app(int(r.app)).hist.Observe(lat)
	e.latAll.Observe(lat)
	e.cServed.Inc()
	q.sw.NoteReqServed()
	q.head = int32(int(q.head+1) % len(q.buf))
	q.n--
	q.busy = false
	if q.n > 0 && q.mu > 0 {
		e.startService(q)
	}
}
