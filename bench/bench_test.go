package main

import (
	"math"
	"testing"
)

// inProcess runs rounds of a small instance of w in the test process.
func inProcess(w workloadDef, o options) func(traced bool) (*round, error) {
	return func(traced bool) (*round, error) {
		r, _, err := runRound(w, o, traced, true)
		if err != nil {
			return nil, err
		}
		r.PeakRSSMB, err = peakRSSMB()
		return r, err
	}
}

// runPhaseLayers are the per-layer self times that, with
// engine.other_s, make up run.wall_s.
var runPhaseLayers = []string{
	"core.pod_step.wall_s", "core.global_step.wall_s", "core.demand_set.wall_s",
	"core.propagate_full.wall_s", "core.trace_sample.wall_s",
	"observers.spans.wall_s", "observers.causal.wall_s", "engine.other_s",
}

func TestWorkloads(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			if !spec.hasWorkload(w.name) {
				t.Fatalf("workload %s is not declared in BENCHMARK.json", w.name)
			}
			o := options{seed: 1, small: true}
			untimed, err := measure(inProcess(w, o), false, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(untimed.problems) > 0 {
				t.Fatalf("verification: %v", untimed.problems)
			}
			if _, err := selectMetrics(untimed.metrics, spec.EndToEnd); err != nil {
				t.Error(err)
			}

			// The traced run checks that its digest equals the untimed one.
			traced, err := measure(inProcess(w, o), true, 0, 1)
			if err != nil {
				t.Fatal(err)
			}
			if len(traced.problems) > 0 {
				t.Fatalf("verification: %v", traced.problems)
			}
			if traced.digest != untimed.digest {
				t.Errorf("traced digest %s, untimed digest %s", traced.digest, untimed.digest)
			}
			layers, err := selectMetrics(traced.metrics, spec.PerLayer)
			if err != nil {
				t.Fatal(err)
			}
			var sum float64
			for _, name := range runPhaseLayers {
				sum += layers[name].Value
			}
			if run := layers["run.wall_s"].Value; math.Abs(sum-run) > 1e-6*run {
				t.Errorf("layer times sum to %v s, run took %v s", sum, run)
			}

			other, _, err := runRound(w, options{seed: 2, small: true}, false, true)
			if err != nil {
				t.Fatal(err)
			}
			if other.Digest == untimed.digest {
				t.Errorf("seeds 1 and 2 give the same digest %s", other.Digest)
			}
		})
	}
}

func TestMetricDefinitions(t *testing.T) {
	spec, err := loadSpec("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range append(spec.EndToEnd, spec.PerLayer...) {
		if d.Unit == "" || (d.Better != "higher" && d.Better != "lower") {
			t.Errorf("metric %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	for _, d := range spec.EndToEnd {
		if !(d.Bound > 0 && d.Bound <= 0.25) {
			t.Errorf("end-to-end metric %s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, q2, q3)
	}
}

func TestVerdict(t *testing.T) {
	higher := metricDef{Name: "x", Better: "higher", Bound: 0.1}
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	for _, c := range []struct {
		head []float64
		want string
	}{
		{[]float64{120, 121, 119, 120, 122, 118, 120, 121, 119, 120}, "improved"},
		{[]float64{100, 100, 100, 101, 99, 100, 100, 101, 99, 100}, "unchanged"},
		{[]float64{80, 81, 79, 80, 82, 78, 80, 81, 79, 80}, "regressed"},
	} {
		if got, _, _ := verdict(higher, base, c.head); got != c.want {
			t.Errorf("head %v: verdict %s, want %s", c.head, got, c.want)
		}
	}
	noisy := []float64{60, 140, 70, 130, 80, 120, 90, 110, 100, 100}
	if got, _, _ := verdict(higher, noisy, base); got != "unresolved" {
		t.Errorf("base spread wider than the bound: verdict %s, want unresolved", got)
	}
}
