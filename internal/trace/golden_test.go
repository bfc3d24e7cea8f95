package trace

import (
	"bytes"
	"flag"
	"math"
	"os"
	"path/filepath"
	"testing"

	"megadc/internal/ipv4"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenTimeseries is a small fixed series exercising every column,
// including the non-finite spellings.
func goldenTimeseries() *Timeseries {
	ts := &Timeseries{}
	ts.Add(Sample{T: 0, Satisfaction: 1, VIPs: 6, RIPs: 12, QueueDepth: 0,
		SwitchUtilMax: 0.25, SwitchUtilMean: 0.125, LinkUtilMax: 0.5, LinkUtilMean: 0.25})
	ts.Add(Sample{T: 10, Satisfaction: 0.875, VIPs: 6, RIPs: 13, QueueDepth: 2,
		SwitchUtilMax: 0.75, SwitchUtilMean: 0.5, LinkUtilMax: 0.9375, LinkUtilMean: 0.625,
		FaultsActive: 1, Violations: 0})
	ts.Add(Sample{T: 20, Satisfaction: math.NaN(), VIPs: 5, RIPs: 13, QueueDepth: 1,
		SwitchUtilMax: math.Inf(1), SwitchUtilMean: 0.5, LinkUtilMax: 1, LinkUtilMean: 0.75,
		FaultsActive: 2, Violations: 3})
	return ts
}

// goldenEvents is a fixed event sequence exercising every rendering
// branch: multiple ref kinds, err flag, and empty ref sets.
func goldenEvents() *Recorder {
	rec := NewRecorder(16)
	now := 0.0
	rec.Now = func() float64 { return now }
	rec.Record(EvAddVIP, 0, 0, VIP(ipv4.MustParse("203.0.113.1")), App(4), SwitchRef(2))
	now = 3
	rec.Record(EvReqSubmit, 1, 0, App(4))
	now = 3.5
	rec.RecordErr(EvTransferVIP, 7, 0, VIP(ipv4.MustParse("203.0.113.1")), SwitchRef(2), SwitchRef(5))
	now = 12.25
	rec.Record(EvHealth, 0, 1, Server(31))
	now = 30
	rec.Record(EvAudit, 2, 100)
	return rec
}

// TestGoldenExports locks the CSV, JSON, and event-log spellings against
// golden files: any formatting drift (which would silently break
// downstream plotting scripts and the determinism guarantee) fails here
// first. Regenerate intentionally with `go test ./internal/trace -update`.
func TestGoldenExports(t *testing.T) {
	cases := []struct {
		file  string
		write func(buf *bytes.Buffer) error
	}{
		{"timeseries.golden.csv", func(buf *bytes.Buffer) error { return goldenTimeseries().WriteCSV(buf) }},
		{"timeseries.golden.json", func(buf *bytes.Buffer) error { return goldenTimeseries().WriteJSON(buf) }},
		{"events.golden.txt", func(buf *bytes.Buffer) error { return goldenEvents().WriteEvents(buf) }},
	}
	for _, tc := range cases {
		t.Run(tc.file, func(t *testing.T) {
			var buf bytes.Buffer
			if err := tc.write(&buf); err != nil {
				t.Fatal(err)
			}
			path := filepath.Join("testdata", tc.file)
			if *updateGolden {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("missing golden file (run with -update): %v", err)
			}
			if !bytes.Equal(buf.Bytes(), want) {
				t.Errorf("%s drifted from golden:\n--- got ---\n%s\n--- want ---\n%s",
					tc.file, buf.Bytes(), want)
			}
		})
	}
}
