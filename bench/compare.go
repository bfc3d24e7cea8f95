package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"slices"
	"text/tabwriter"
)

// benchSpec is the part of BENCHMARK.json the benchmark reads.
type benchSpec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"` // "higher" or "lower"
	Bound  float64 `json:"bound"`  // end-to-end only: the share of the base median a metric may worsen by
}

func loadSpec(path string) (*benchSpec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("benchmark definition: %w", err)
	}
	var s benchSpec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("benchmark definition %s: %w", path, err)
	}
	return &s, nil
}

func (s *benchSpec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// runLine is one run read back from a result file: its header and the
// result line that follows it.
type runLine struct {
	header
	result
}

// readRuns parses the output of one or more benchmark runs.
func readRuns(path string) ([]runLine, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var runs []runLine
	var hd *header
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var probe map[string]json.RawMessage
		if json.Unmarshal(sc.Bytes(), &probe) != nil {
			continue // not a JSON line
		}
		switch {
		case probe["workload"] != nil:
			hd = new(header)
			if err := json.Unmarshal(sc.Bytes(), hd); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
		case probe["metrics"] != nil && hd != nil:
			r := runLine{header: *hd}
			if err := json.Unmarshal(sc.Bytes(), &r.result); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			runs = append(runs, r)
			hd = nil
		}
	}
	return runs, sc.Err()
}

// quartiles returns the three cut points of statistics.quantiles(vs,
// n=4) in Python's default ("exclusive") method.
func quartiles(vs []float64) (q1, q2, q3 float64) {
	s := slices.Clone(vs)
	slices.Sort(s)
	n := len(s)
	if n == 0 {
		return 0, 0, 0
	}
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// verdict compares head runs with base runs of one metric. Pairs are
// runs in file order. It follows choosing-metrics §8: improved needs
// ≥ 9/10 of pairs won and a median gap larger than the base's IQR; a
// base spread wider than the bound leaves the metric unresolved; a
// median worse by more than the bound is a regression.
func verdict(d metricDef, base, head []float64) (string, int, int) {
	better := func(a, b float64) bool {
		if d.Better == "higher" {
			return a > b
		}
		return a < b
	}
	pairs := min(len(base), len(head))
	wins := 0
	for i := 0; i < pairs; i++ {
		if better(head[i], base[i]) {
			wins++
		}
	}
	b1, bm, b3 := quartiles(base)
	_, hm, _ := quartiles(head)
	gap := hm - bm
	if d.Better == "lower" {
		gap = -gap
	}
	switch {
	case pairs > 0 && wins*10 >= 9*pairs && gap > b3-b1:
		return "improved", wins, pairs
	case b3-b1 > d.Bound*math.Abs(bm):
		return "unresolved", wins, pairs
	case -gap > d.Bound*math.Abs(bm):
		return "regressed", wins, pairs
	}
	return "unchanged", wins, pairs
}

// compareFiles prints, per workload and end-to-end metric, each side's
// median and quartiles, the pairs won and the verdict, then any output
// digest that differs between runs of the same workload and seed. It
// reports whether anything regressed or a digest differs.
func compareFiles(spec *benchSpec, basePath, headPath string, out io.Writer) (bool, error) {
	base, err := readRuns(basePath)
	if err != nil {
		return false, err
	}
	head, err := readRuns(headPath)
	if err != nil {
		return false, err
	}
	values := func(runs []runLine, workload, metric string) []float64 {
		var vs []float64
		for _, r := range runs {
			if m, ok := r.Metrics[metric]; ok && r.Workload == workload && r.Trace == 0 {
				vs = append(vs, m.Value)
			}
		}
		return vs
	}
	bad := false
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tbase q1/median/q3\thead q1/median/q3\twins\tverdict")
	for _, w := range spec.Workloads {
		for _, d := range spec.EndToEnd {
			b, h := values(base, w.Name, d.Name), values(head, w.Name, d.Name)
			if len(b) == 0 || len(h) == 0 {
				continue
			}
			v, wins, pairs := verdict(d, b, h)
			bad = bad || v == "regressed"
			b1, bm, b3 := quartiles(b)
			h1, hm, h3 := quartiles(h)
			fmt.Fprintf(tw, "%s\t%s (%s)\t%.4g/%.4g/%.4g\t%.4g/%.4g/%.4g\t%d/%d\t%s\n",
				w.Name, d.Name, d.Unit, b1, bm, b3, h1, hm, h3, wins, pairs, v)
		}
	}
	if err := tw.Flush(); err != nil {
		return false, err
	}
	// Outputs are deterministic per workload and seed: compare exactly.
	type key struct {
		workload string
		seed     int64
	}
	want := map[key]string{}
	for _, r := range base {
		want[key{r.Workload, r.Seed}] = r.Digest
	}
	for _, r := range head {
		if d, ok := want[key{r.Workload, r.Seed}]; ok && d != r.Digest {
			fmt.Fprintf(out, "outputs differ: %s seed %d digest %s (base) vs %s (head)\n", r.Workload, r.Seed, d, r.Digest)
			bad = true
		}
	}
	return bad, nil
}
