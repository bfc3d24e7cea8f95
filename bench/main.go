// Command bench is the simulator's benchmark: it runs one workload for
// a fixed wall-clock budget, checks that the outputs are correct, and
// prints every metric by name with its unit. BENCHMARK.json at the root
// of the repository declares the workloads and the metrics; README.md
// in this directory explains them.
//
// Run it from the root of the repository:
//
//	bash bench/run.sh --workload elastic --seed 1 --seconds 30 --trace 0
//	bash bench/run.sh --workload scale100k --trace 1 --trace-out scale100k.json
//	bash bench/run.sh                            # every workload, one process each
//	bash bench/run.sh -compare base.jsonl head.jsonl
//	bash bench/run.sh -update-digests bench/testdata/digests.json
package main

import (
	"bytes"
	"cmp"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// goldenDigests holds the seed-1 output digest of every workload.
//
//go:embed testdata/digests.json
var goldenDigests []byte

// minRounds is the fewest rounds one run measures, so that set-up time
// is a median of several set-ups.
const minRounds = 3

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// header is the line a run prints before its result.
type header struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      int    `json:"trace"`
	Rounds     int    `json:"rounds"`
	Digest     string `json:"digest"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
}

func main() {
	os.Exit(realMain(os.Args[1:]))
}

func realMain(args []string) int {
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run; empty runs every workload, each in its own process")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 30, "measure rounds for at most this many wall seconds, but at least three rounds")
	traceMode := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	traceOut := fs.String("trace-out", "", "with -trace 1: write the last round's spans as Chrome trace JSON to this file")
	compare := fs.Bool("compare", false, "compare the result files base.jsonl and head.jsonl given as arguments")
	update := fs.String("update-digests", "", "run every workload at seed 1 and write the output digests to this file")
	oneRound := fs.Bool("round", false, "run a single round and print its record (used by the run itself)")
	verify := fs.Bool("verify", true, "with -round: check invariants, the audit and the request counters")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	fail := func(err error) int {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	if *traceMode != 0 && *traceMode != 1 {
		return fail(fmt.Errorf("-trace must be 0 or 1, got %d", *traceMode))
	}
	traced := *traceMode == 1
	if *oneRound {
		w, ok := findWorkload(*name)
		if !ok {
			return fail(fmt.Errorf("unknown workload %q", *name))
		}
		if err := printRound(w, options{seed: *seed}, traced, *verify, *traceOut); err != nil {
			return fail(err)
		}
		return 0
	}
	spec, err := loadSpec("BENCHMARK.json")
	if err != nil {
		return fail(err)
	}
	switch {
	case *compare:
		if fs.NArg() != 2 {
			return fail(errors.New("-compare needs two files: base.jsonl head.jsonl"))
		}
		bad, err := compareFiles(spec, fs.Arg(0), fs.Arg(1), os.Stdout)
		if err != nil {
			return fail(err)
		}
		if bad {
			return 1
		}
		return 0
	case *update != "":
		if err := updateDigests(*update); err != nil {
			return fail(err)
		}
		return 0
	case *name == "":
		return runAll(spec, args)
	}
	if _, ok := findWorkload(*name); !ok || !spec.hasWorkload(*name) {
		return fail(fmt.Errorf("unknown workload %q", *name))
	}
	golden, err := loadDigests(goldenDigests)
	if err != nil {
		return fail(err)
	}
	defs := spec.EndToEnd
	if traced {
		defs = spec.PerLayer
	}

	// Every round runs in a fresh child process, so no round inherits
	// another's heap, goroutines or peak RSS. The first round is verified
	// in full; the others are the same deterministic computation and
	// must reproduce its digest.
	exe, err := os.Executable()
	if err != nil {
		return fail(err)
	}
	verified := false
	next := func(tracedRound bool) (*round, error) {
		cargs := []string{"-round", "-workload", *name, "-seed", strconv.FormatInt(*seed, 10),
			"-verify=" + strconv.FormatBool(!verified)}
		if tracedRound {
			cargs = append(cargs, "-trace", "1", "-trace-out", *traceOut)
		}
		verified = true
		return roundInChild(exe, cargs)
	}
	m, err := measure(next, traced, time.Duration(*seconds*float64(time.Second)), minRounds)
	if err != nil {
		return fail(err)
	}
	if want := golden[*name]; *seed == 1 && m.digest != want {
		m.problems = append(m.problems, fmt.Sprintf(
			"digest %s differs from the seed-1 golden %q in bench/testdata/digests.json", m.digest, want))
	}
	res := result{Correct: len(m.problems) == 0, Attempted: m.attempted}
	if !res.Correct {
		res.Failed = res.Attempted
	}
	if res.Metrics, err = selectMetrics(m.metrics, defs); err != nil {
		return fail(err)
	}
	for _, p := range m.problems {
		fmt.Fprintln(os.Stderr, "bench: verification failed:", p)
	}
	hd := header{Workload: *name, Seed: *seed, Trace: *traceMode, Rounds: m.rounds, Digest: m.digest,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Go: runtime.Version()}
	if err := printJSON(os.Stdout, hd, res); err != nil {
		return fail(err)
	}
	if !res.Correct {
		return 1
	}
	return 0
}

func printJSON(w io.Writer, vs ...any) error {
	enc := json.NewEncoder(w)
	for _, v := range vs {
		if err := enc.Encode(v); err != nil {
			return err
		}
	}
	return nil
}

// runAll runs every workload of the spec in its own process, with the
// given flags, and reports whether all of them succeeded.
func runAll(spec *benchSpec, args []string) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	code := 0
	for _, w := range spec.Workloads {
		cmd := exec.Command(exe, append(slices.Clone(args), "-workload", w.Name)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: workload %s: %v\n", w.Name, err)
			code = 1
		}
	}
	return code
}

// round is the record of one set-up, run and verification.
type round struct {
	SetupS    float64           `json:"setup_s"`
	RunS      float64           `json:"run_s"`
	SimS      float64           `json:"sim_s"`
	PeakRSSMB float64           `json:"peak_rss_mb"`
	Digest    string            `json:"digest"`
	Attempted int64             `json:"attempted"`
	Error     string            `json:"error,omitempty"`
	Metrics   map[string]metric `json:"metrics"`
}

// roundInChild runs one round in a child process and reads its record.
func roundInChild(exe string, args []string) (*round, error) {
	var out bytes.Buffer
	cmd := exec.Command(exe, args...)
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("round %v: %w", args, err)
	}
	r := new(round)
	if err := json.Unmarshal(out.Bytes(), r); err != nil {
		return nil, fmt.Errorf("round %v: %w", args, err)
	}
	return r, nil
}

// printRound runs one round of w in this process and prints its record.
func printRound(w workloadDef, o options, traced, verify bool, traceOut string) error {
	r, tr, err := runRound(w, o, traced, verify)
	if err != nil {
		return err
	}
	if r.PeakRSSMB, err = peakRSSMB(); err != nil {
		return err
	}
	if tr != nil && traceOut != "" {
		if err := tr.writeChrome(traceOut); err != nil {
			return err
		}
	}
	return printJSON(os.Stdout, r)
}

// runRound builds, runs and, if asked, verifies one instance of w. A
// traced round also measures every per-layer metric and returns its
// spans.
func runRound(w workloadDef, o options, traced, verify bool) (*round, *tracer, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	t0 := time.Now()
	in, err := w.setup(o, tr)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: set-up: %w", w.name, err)
	}
	setup := time.Since(t0)
	// Start the run from a collected heap, so set-up garbage is not
	// charged to it.
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	var self [numLayers]int64 // each layer's self time during the run
	if tr != nil {
		self = tr.self
	}
	t1 := time.Now()
	tr.do(layerRun, func() { in.p.Eng.RunUntil(in.end) })
	run := time.Since(t1)
	runtime.ReadMemStats(&after)
	if tr != nil {
		for l := range self {
			self[l] = tr.self[l] - self[l]
		}
	}

	r := &round{SetupS: setup.Seconds(), RunS: run.Seconds(), SimS: in.end}
	r.Digest = in.digest()
	if verify {
		if err := in.verify(); err != nil {
			r.Error = err.Error()
		}
	}
	r.Attempted = in.attempted()
	r.Metrics = in.modelMetrics()
	if tr != nil {
		in.layerMetrics(r.Metrics, self, &before, &after)
	}
	return r, tr, nil
}

// layerMetrics adds the traced round's per-layer timings to out.
// Run-phase wall_s values are self times (nested spans subtracted), so
// they and engine.other_s sum to run.wall_s.
func (in *instance) layerMetrics(out map[string]metric, runSelf [numLayers]int64, before, after *runtime.MemStats) {
	tr := in.tr
	sec := func(ns int64) float64 { return float64(ns) / 1e9 }
	self := func(l layer) float64 { return sec(runSelf[l]) }
	var runNS int64
	for _, s := range tr.spans {
		if s.layer == layerRun {
			runNS = s.dur
		}
	}
	timed := func(l layer, unit string, scale float64) {
		ds := tr.durations(l)
		name := layerNames[l]
		out[name+".calls"] = metric{float64(len(ds)), "count"}
		out[name+".wall_s"] = metric{self(l), "s"}
		out[name+".p50_"+unit] = metric{quantileNS(ds, 0.5) / scale, unit}
		out[name+".p99_"+unit] = metric{quantileNS(ds, 0.99) / scale, unit}
	}
	timed(layerPodStep, "ms", 1e6)
	timed(layerGlobalStep, "ms", 1e6)
	timed(layerDemandSet, "us", 1e3)
	timed(layerPropagateFull, "ms", 1e6)
	out["core.propagate_full.allocs_per_call"] = metric{
		ratio(int64(tr.fullAllocs), int64(out["core.propagate_full.calls"].Value)), "allocs/call"}
	for _, l := range []layer{layerTraceSample, layerSpans, layerCausal} {
		out[layerNames[l]+".wall_s"] = metric{self(l), "s"}
	}
	// Set-up layers happen before the run span; report their whole time.
	for _, l := range []layer{layerBulkBuild, layerOnboard} {
		var ns int64
		for _, s := range tr.spans {
			if s.layer == l {
				ns += s.dur
			}
		}
		out[layerNames[l]+".wall_s"] = metric{sec(ns), "s"}
	}
	out["run.wall_s"] = metric{sec(runNS), "s"}
	out["engine.other_s"] = metric{self(layerRun), "s"}
	out["sim.wall_ns_per_event"] = metric{float64(runNS) / max(out["sim.events"].Value, 1), "ns/event"}
	var perReq float64
	if g := out["requests.generated"].Value; g > 0 {
		perReq = float64(runNS) / g
	}
	out["requests.wall_ns_per_req"] = metric{perReq, "ns/req"}
	out["runtime.alloc_mb"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20), "MB"}
	out["runtime.gc_cycles"] = metric{float64(after.NumGC - before.NumGC), "count"}
	out["runtime.gc_pause_ms"] = metric{float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6, "ms"}
	out["runtime.gc_cpu_fraction"] = metric{after.GCCPUFraction, "ratio"}
}

// measurement aggregates the rounds of one run.
type measurement struct {
	rounds    int
	digest    string
	attempted int64
	metrics   map[string]metric
	problems  []string
}

// measure runs rounds, each obtained from next, until at least
// minRounds have run and another round, as long as the last, would end
// past budget; so a run ends within budget unless minRounds do not fit
// in it. It checks that every round reproduces the first round's
// digest. Untimed, it reports the
// end-to-end metrics as medians over rounds. Traced, it runs an untimed
// round before each traced one: the median ratio of their run times is
// the tracing overhead. Per-layer metrics come from the traced round
// with the median run time, so that its layer times sum to its run time.
func measure(next func(traced bool) (*round, error), traced bool, budget time.Duration, minRounds int) (*measurement, error) {
	start := time.Now()
	m := &measurement{metrics: map[string]metric{}}
	run := func(traced bool) (*round, error) {
		r, err := next(traced)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "round traced=%v: set-up %.3f s, run %.3f s (%.1f sim-s/s), peak RSS %.0f MB, digest %s\n",
			traced, r.SetupS, r.RunS, r.SimS/r.RunS, r.PeakRSSMB, r.Digest)
		m.attempted += r.Attempted
		if r.Error != "" {
			m.problems = append(m.problems, r.Error)
		}
		if m.digest == "" {
			m.digest = r.Digest
		} else if r.Digest != m.digest {
			m.problems = append(m.problems, fmt.Sprintf("round digest %s differs from %s", r.Digest, m.digest))
		}
		return r, nil
	}
	var rounds []*round
	var overhead []float64
	var last time.Duration
	for len(rounds) < minRounds || time.Since(start)+last <= budget {
		t := time.Now()
		var base *round
		if traced {
			var err error
			if base, err = run(false); err != nil {
				return nil, err
			}
		}
		r, err := run(traced)
		if err != nil {
			return nil, err
		}
		rounds = append(rounds, r)
		if base != nil {
			overhead = append(overhead, r.RunS/base.RunS)
		}
		last = time.Since(t)
	}
	m.rounds = len(rounds)
	med := func(f func(*round) float64) float64 {
		vs := make([]float64, len(rounds))
		for i, r := range rounds {
			vs[i] = f(r)
		}
		return median(vs)
	}
	if traced {
		byRun := slices.Clone(rounds)
		slices.SortFunc(byRun, func(a, b *round) int { return cmp.Compare(a.RunS, b.RunS) })
		maps.Copy(m.metrics, byRun[(len(byRun)-1)/2].Metrics)
		m.metrics["trace.overhead_ratio"] = metric{median(overhead), "ratio"}
		return m, nil
	}
	m.metrics["setup_s"] = metric{med(func(r *round) float64 { return r.SetupS }), "s"}
	m.metrics["sim_s_per_wall_s"] = metric{med(func(r *round) float64 { return r.SimS / r.RunS }), "sim-s/s"}
	m.metrics["peak_rss_mb"] = metric{med(func(r *round) float64 { return r.PeakRSSMB }), "MB"}
	return m, nil
}

func median(vs []float64) float64 {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// peakRSSMB reads the process's peak resident set size (VmHWM).
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, fmt.Errorf("peak RSS: %w", err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(v), "kB")), 64)
			if err != nil {
				return 0, fmt.Errorf("peak RSS: %w", err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("peak RSS: no VmHWM line in /proc/self/status")
}

// selectMetrics returns the metrics defs declares, failing when one was
// not measured, has another unit, or is not finite.
func selectMetrics(all map[string]metric, defs []metricDef) (map[string]metric, error) {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		m, ok := all[d.Name]
		switch {
		case !ok:
			return nil, fmt.Errorf("metric %s is declared but not measured", d.Name)
		case m.Unit != d.Unit:
			return nil, fmt.Errorf("metric %s is measured in %s but declared in %s", d.Name, m.Unit, d.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			return nil, fmt.Errorf("metric %s is not finite: %v", d.Name, m.Value)
		}
		out[d.Name] = m
	}
	return out, nil
}

func loadDigests(b []byte) (map[string]string, error) {
	var d map[string]string
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	return d, nil
}

// updateDigests runs one untimed round of every workload at seed 1,
// each in a child process, and writes their digests to path.
func updateDigests(path string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	d := map[string]string{}
	for _, w := range workloads {
		r, err := roundInChild(exe, []string{"-round", "-workload", w.name, "-seed", "1"})
		if err != nil {
			return err
		}
		if r.Error != "" {
			return fmt.Errorf("%s: %s", w.name, r.Error)
		}
		d[w.name] = r.Digest
		fmt.Fprintf(os.Stderr, "%s: %s\n", w.name, r.Digest)
	}
	b, err := json.MarshalIndent(d, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
