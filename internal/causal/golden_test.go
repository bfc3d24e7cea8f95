package causal_test

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"megadc/internal/causal"
	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/ctrlplane"
	"megadc/internal/faults"
	"megadc/internal/metrics"
	"megadc/internal/trace"
	"megadc/internal/workload"
)

var updateGolden = flag.Bool("update", false, "rewrite golden files")

// goldenRun is a seeded 1,800-second run with every knob on, fault
// churn (server, switch and link faults, flaps and pod partitions), a
// lossy, jittery control bus and a serialized reconfiguration pipeline,
// with the assembler capped at 32 trees so it evicts hundreds of times.
// It returns WriteAll's rendering of the retained trees every 300
// simulated seconds, each followed by the causal.* counters.
func goldenRun(t *testing.T) []byte {
	t.Helper()
	reg := metrics.NewRegistry()
	asm := causal.New(reg)
	causal.SetMaxTrees(asm, 32)
	cfg := core.DefaultConfig()
	cfg.SerializeReconfig = true
	cfg.Trace = trace.NewRecorder(trace.DefaultRingSize)
	cfg.Causal = asm
	cfg.Ctrl.Enable = true
	cfg.Ctrl.Default = ctrlplane.LinkConfig{Delay: 0.5, Jitter: 0.2, LossProb: 0.3, DupProb: 0.1}
	cfg.Ctrl.MaxRetries = 1
	topo := core.SmallTopology()
	topo.Seed = 7
	p, err := core.NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(p.Close)
	slice := cluster.Resources{CPU: 1, MemMB: 1024, NetMbps: 100}
	var apps []cluster.AppID
	for i := 0; i < 12; i++ {
		a, err := p.OnboardApp(fmt.Sprintf("app-%02d", i), slice, 3, core.Demand{CPU: 4, Mbps: 60})
		if err != nil {
			t.Fatal(err)
		}
		apps = append(apps, a.ID)
	}
	fc := faults.DefaultConfig()
	fc.Server = faults.Class{MTBF: 300, MTTR: 90, DetectDelay: 15}
	fc.Switch = faults.Class{MTBF: 900, MTTR: 120, DetectDelay: 10}
	fc.Link = faults.Class{MTBF: 800, MTTR: 80, DetectDelay: 5}
	fc.Flap = faults.FlapConfig{MTBF: 900, Cycles: 3, Down: 2, Up: 8}
	fc.Partition = faults.Class{MTBF: 400, MTTR: 60}
	const dur = 1800
	faults.New(p, fc).Start(dur)
	for i, app := range apps[:4] {
		prof := workload.FlashCrowd{Base: 1, Peak: 4 + float64(i), Start: 200 + 100*float64(i), Ramp: 60, Hold: 400}
		p.DriveDemand(app, prof, p.AppDemand(app), 30, dur)
	}
	p.Start()
	var b bytes.Buffer
	for at := 300.0; at <= dur; at += 300 {
		p.Eng.RunUntil(at)
		fmt.Fprintf(&b, "== t=%g\n", at)
		if err := asm.WriteAll(&b); err != nil {
			t.Fatal(err)
		}
		for _, name := range []string{"causal.decisions", "causal.evicted", "causal.deadlettered", "causal.sessions_broken"} {
			fmt.Fprintf(&b, "%s %d\n", name, reg.Counter(name).Value())
		}
	}
	return b.Bytes()
}

// TestWriteAllGolden locks the assembled trees of a run that churns,
// loses and duplicates control messages and evicts far past the cap,
// so a change to how trees are stored or recycled shows up as a diff.
// Regenerate intentionally with `go test ./internal/causal -update`.
func TestWriteAllGolden(t *testing.T) {
	got := goldenRun(t)
	path := filepath.Join("testdata", "writeall.golden.txt")
	if *updateGolden {
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("assembled trees drifted from %s (%d bytes, want %d)", path, len(got), len(want))
	}
}
