package metrics

import (
	"fmt"
	"slices"
	"sync"
)

// Registry is a named catalogue of every metric a run produces, so the
// observability layer can enumerate the full surface (Prometheus
// exposition, experiment dumps) without each subsystem exporting its
// own ad-hoc accessors. Names are dot-separated lowercase paths,
// component-first ("viprip.queue_wait.high", "drain.start_to_finish");
// the exposition layer mangles them into Prometheus form.
//
// The lazy getters create-on-first-use so instrumentation points need
// no registration ceremony. A name is permanently bound to the kind
// that first claimed it; reusing it as a different kind panics, since
// two subsystems silently sharing a name would corrupt both series.
//
// The registry serializes map access, but the returned metrics are not
// themselves synchronized — they are written by the simulation
// goroutine only. Concurrent readers (the HTTP observer) must consume
// published snapshots, never the live metrics (see internal/obs).
type Registry struct {
	mu     sync.Mutex
	kinds  map[string]string // name → "counter" | "gauge" | "histogram" | "availability"
	counts map[string]*Counter
	gauges map[string]*Gauge
	hists  map[string]*Histogram
	avails map[string]*Availability
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		kinds:  make(map[string]string),
		counts: make(map[string]*Counter),
		gauges: make(map[string]*Gauge),
		hists:  make(map[string]*Histogram),
		avails: make(map[string]*Availability),
	}
}

func (r *Registry) claim(name, kind string) {
	if name == "" {
		panic("metrics: empty metric name")
	}
	if have, ok := r.kinds[name]; ok && have != kind {
		panic(fmt.Sprintf("metrics: %q already registered as %s, requested as %s", name, have, kind))
	}
	r.kinds[name] = kind
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "counter")
	c, ok := r.counts[name]
	if !ok {
		c = &Counter{}
		r.counts[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "gauge")
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the named histogram,
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "histogram")
	h, ok := r.hists[name]
	if !ok {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// RegisterHistogram attaches an externally owned histogram under the
// given name, so a subsystem can keep its histograms in its own records
// (internal/requests holds one per application in place). The name must
// be new: it panics if the name is already registered, whatever its
// kind, since two histograms cannot share one series.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	if h == nil {
		panic("metrics: RegisterHistogram(nil)")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.kinds[name] == "histogram" {
		panic(fmt.Sprintf("metrics: histogram %q already registered", name))
	}
	r.claim(name, "histogram")
	r.hists[name] = h
}

// RegisterAvailability attaches an externally owned availability
// tracker under the given name. Availability trackers are built by the
// fault monitor, not the registry, so there is no lazy constructor.
func (r *Registry) RegisterAvailability(name string, a *Availability) {
	if a == nil {
		panic("metrics: RegisterAvailability(nil)")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.claim(name, "availability")
	r.avails[name] = a
}

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.kinds))
	for n := range r.kinds {
		names = append(names, n)
	}
	slices.Sort(names)
	return names
}

// Kind returns the registered kind of name ("counter", "gauge",
// "histogram", "availability") or "" if unknown.
func (r *Registry) Kind(name string) string {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.kinds[name]
}

// Each visits every metric in sorted name order. The visited metric is
// one of *Counter, *Gauge, *Histogram, *Availability. Callers must not
// retain the metrics across goroutines; see the type comment.
func (r *Registry) Each(fn func(name string, m any)) {
	for _, name := range r.Names() {
		r.mu.Lock()
		var m any
		switch r.kinds[name] {
		case "counter":
			m = r.counts[name]
		case "gauge":
			m = r.gauges[name]
		case "histogram":
			m = r.hists[name]
		case "availability":
			m = r.avails[name]
		}
		r.mu.Unlock()
		if m != nil {
			fn(name, m)
		}
	}
}
