package main

import (
	"bufio"
	"fmt"
	"os"
	"slices"
	"time"
)

// layer names one span kind the traced run times from outside the
// program, around the public call into that layer.
type layer uint8

const (
	layerRun layer = iota // the run phase; parent of every run-phase span
	layerPodStep
	layerGlobalStep
	layerDemandSet
	layerPropagateFull
	layerTraceSample
	layerSpans
	layerCausal
	layerBulkBuild // set-up
	layerOnboard   // set-up
	numLayers
)

var layerNames = [numLayers]string{
	layerRun:           "run",
	layerPodStep:       "core.pod_step",
	layerGlobalStep:    "core.global_step",
	layerDemandSet:     "core.demand_set",
	layerPropagateFull: "core.propagate_full",
	layerTraceSample:   "core.trace_sample",
	layerSpans:         "observers.spans",
	layerCausal:        "observers.causal",
	layerBulkBuild:     "core.bulk_build",
	layerOnboard:       "core.onboard",
}

// span is one timed call. Times are nanoseconds since the tracer's
// origin; parent is the index of the enclosing span, or -1.
type span struct {
	layer      layer
	parent     int32
	start, dur int64
}

type frame struct {
	idx   int32
	child int64 // ns of this span covered by its children
}

// tracer keeps every span of one round in memory. Nested spans are
// subtracted from their parent's self time, so the self times of all
// run-phase layers sum exactly to the run span's duration. A nil
// tracer runs the wrapped call untimed.
type tracer struct {
	origin time.Time
	spans  []span
	stack  []frame
	self   [numLayers]int64

	// Mallocs measured around each PropagateFull call.
	fullAllocs uint64
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.origin)) }

// do runs f as one span of layer l.
func (t *tracer) do(l layer, f func()) {
	if t == nil {
		f()
		return
	}
	t.begin(l)
	f()
	t.end()
}

func (t *tracer) begin(l layer) {
	parent := int32(-1)
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1].idx
	}
	t.spans = append(t.spans, span{layer: l, parent: parent, start: t.now()})
	t.stack = append(t.stack, frame{idx: int32(len(t.spans) - 1)})
}

func (t *tracer) end() {
	f := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	s := &t.spans[f.idx]
	s.dur = t.now() - s.start
	t.self[s.layer] += s.dur - f.child
	if n := len(t.stack); n > 0 {
		t.stack[n-1].child += s.dur
	}
}

// durations returns the inclusive durations of l's spans, sorted.
func (t *tracer) durations(l layer) []int64 {
	var ds []int64
	for _, s := range t.spans {
		if s.layer == l {
			ds = append(ds, s.dur)
		}
	}
	slices.Sort(ds)
	return ds
}

// quantileNS returns the q-quantile of sorted durations (nearest rank).
func quantileNS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted)) + 0.5)
	i = min(max(i-1, 0), len(sorted)-1)
	return float64(sorted[i])
}

// writeChrome writes the spans as Chrome trace-event JSON (complete
// "X" events, microseconds), loadable in Perfetto or chrome://tracing.
func (t *tracer) writeChrome(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, `{"displayTimeUnit":"ns","traceEvents":[`)
	for i, s := range t.spans {
		if i > 0 {
			w.WriteByte(',')
		}
		fmt.Fprintf(w, "\n"+`{"name":%q,"ph":"X","pid":1,"tid":1,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}`,
			layerNames[s.layer], float64(s.start)/1e3, float64(s.dur)/1e3, i, s.parent)
	}
	fmt.Fprint(w, "\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
