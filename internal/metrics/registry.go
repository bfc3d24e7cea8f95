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
	mu sync.Mutex
	m  map[string]any // name → *Counter | *Gauge | *Histogram | *Availability
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{m: make(map[string]any)}
}

// kindOf names the kind of a registered metric.
func kindOf(m any) string {
	switch m.(type) {
	case *Counter:
		return "counter"
	case *Gauge:
		return "gauge"
	case *Histogram:
		return "histogram"
	case *Availability:
		return "availability"
	}
	return ""
}

// conflict panics for a name already registered as another kind.
func conflict(name string, have any, kind string) {
	panic(fmt.Sprintf("metrics: %q already registered as %s, requested as %s", name, kindOf(have), kind))
}

// lazy returns the metric of type T registered under name, creating it
// with mk on first use.
func lazy[T any](r *Registry, name, kind string, mk func() *T) *T {
	if name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.m[name]; ok {
		m, ok := have.(*T)
		if !ok {
			conflict(name, have, kind)
		}
		return m
	}
	m := mk()
	r.m[name] = m
	return m
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	return lazy(r, name, "counter", func() *Counter { return &Counter{} })
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	return lazy(r, name, "gauge", func() *Gauge { return &Gauge{} })
}

// Histogram returns the named histogram,
// creating it on first use.
func (r *Registry) Histogram(name string) *Histogram {
	return lazy(r, name, "histogram", NewHistogram)
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
	if name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.m[name]; ok {
		if _, dup := have.(*Histogram); dup {
			panic(fmt.Sprintf("metrics: histogram %q already registered", name))
		}
		conflict(name, have, "histogram")
	}
	r.m[name] = h
}

// RegisterAvailability attaches an externally owned availability
// tracker under the given name. Availability trackers are built by the
// fault monitor, not the registry, so there is no lazy constructor.
func (r *Registry) RegisterAvailability(name string, a *Availability) {
	if a == nil {
		panic("metrics: RegisterAvailability(nil)")
	}
	if name == "" {
		panic("metrics: empty metric name")
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if have, ok := r.m[name]; ok {
		if _, same := have.(*Availability); !same {
			conflict(name, have, "availability")
		}
	}
	r.m[name] = a
}

// Names returns every registered metric name, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.m))
	for n := range r.m {
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
	return kindOf(r.m[name])
}

// Each visits every metric in sorted name order. The visited metric is
// one of *Counter, *Gauge, *Histogram, *Availability. Callers must not
// retain the metrics across goroutines; see the type comment.
func (r *Registry) Each(fn func(name string, m any)) {
	for _, name := range r.Names() {
		r.mu.Lock()
		m := r.m[name]
		r.mu.Unlock()
		if m != nil {
			fn(name, m)
		}
	}
}
