package runconfig

import (
	"flag"
	"io"
	"testing"

	"megadc/internal/core"
	"megadc/internal/metrics"
)

func parse(t *testing.T, platform bool, args ...string) *Flags {
	t.Helper()
	f, _ := parseFS(t, platform, args...)
	return f
}

// parseFS is parse returning the flag set too.
func parseFS(t *testing.T, platform bool, args ...string) (*Flags, *flag.FlagSet) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, 10)
	if platform {
		f.RegisterPlatform(fs)
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f, fs
}

func TestPlatformAppliesFlags(t *testing.T) {
	f := parse(t, true, "-seed", "7", "-pods", "6", "-servers", "3", "-switchpods", "2",
		"-knobs", "a, F", "-serialize", "-ctrl", "-ctrl-loss", "0.1", "-ctrl-snapshot", "30", "-trace")
	reg := metrics.NewRegistry()
	topo, cfg, err := f.Platform(reg)
	if err != nil {
		t.Fatal(err)
	}
	if topo.Seed != 7 || topo.Pods != 6 || topo.ServersPerPod != 3 || topo.SwitchPods != 2 {
		t.Errorf("topology = %+v", topo)
	}
	if cfg.AuditEvery != 10 || !cfg.SerializeReconfig || cfg.Trace == nil || cfg.Trace.TS == nil {
		t.Errorf("config: audit %d serialize %v trace %v", cfg.AuditEvery, cfg.SerializeReconfig, cfg.Trace)
	}
	for k := core.Knob(0); k <= core.KnobRIPWeights; k++ {
		want := k == core.KnobSelectiveExposure || k == core.KnobRIPWeights
		if cfg.Enabled(k) != want {
			t.Errorf("knob %v enabled = %v, want %v", k, cfg.Enabled(k), want)
		}
	}
	if !cfg.Ctrl.Enable || cfg.Ctrl.Default.LossProb != 0.1 || cfg.Ctrl.SnapshotEvery != 30 || cfg.Ctrl.Registry != reg {
		t.Errorf("control plane = %+v", cfg.Ctrl)
	}
	if _, err := core.NewPlatform(topo, cfg); err != nil {
		t.Errorf("flags produced an invalid platform: %v", err)
	}
}

// TestPlatformRejectsInconsistentFlags: a flag without the flag it
// takes effect with fails CheckPairs, and an unknown knob fails
// Platform.
func TestPlatformRejectsInconsistentFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-ctrl-delay", "1"},
		{"-ctrl-partition-mtbf", "600"},
		{"-trace-events", "ev.log"},
	} {
		if _, fs := parseFS(t, true, args...); CheckPairs(fs) == nil {
			t.Errorf("%v accepted", args)
		}
	}
	if _, _, err := parse(t, true, "-knobs", "A,G").Platform(nil); err == nil {
		t.Error("-knobs A,G accepted")
	}
	if rec, err := parse(t, false).Recorder(); rec != nil || err != nil {
		t.Errorf("no -trace: recorder %v, err %v", rec, err)
	}
}

// TestCheckPairs: a flag needs its pair whenever it is given, at its
// default value too, and the pair must be switched on (true, or a
// non-zero MTBF); the error names the first unmet rule, the package's
// before the caller's.
func TestCheckPairs(t *testing.T) {
	extra := []Pair{
		{Needs: "churn", Flags: []string{"ctrl-partition-mtbf", "ctrl-partition-mttr"}},
		{Needs: "ctrl-partition-mtbf", Flags: []string{"ctrl-partition-mttr"}},
	}
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-seed", "3", "-ctrl", "-trace"}, ""},
		{[]string{"-ctrl-delay", "0"}, "-ctrl-delay must be used with -ctrl"},
		{[]string{"-ctrl=false", "-ctrl-loss", "0.1"}, "-ctrl-loss must be used with -ctrl"},
		{[]string{"-ctrl", "-ctrl-delay", "0", "-ctrl-snapshot", "30"}, ""},
		{[]string{"-trace-ring", "100"}, "-trace-ring must be used with -trace"},
		{[]string{"-trace", "-trace-ring", "100", "-trace-ts", "ts.csv"}, ""},
		{[]string{"-ctrl-partition-mttr", "120"}, "-ctrl-partition-mttr must be used with -ctrl"},
		{[]string{"-ctrl", "-ctrl-partition-mttr", "120"}, "-ctrl-partition-mttr must be used with -churn"},
		{[]string{"-churn", "-ctrl", "-ctrl-partition-mttr", "120"}, "-ctrl-partition-mttr must be used with -ctrl-partition-mtbf"},
		{[]string{"-churn", "-ctrl", "-ctrl-partition-mtbf", "0", "-ctrl-partition-mttr", "120"}, "-ctrl-partition-mttr must be used with -ctrl-partition-mtbf"},
		{[]string{"-churn", "-ctrl", "-ctrl-partition-mtbf", "600", "-ctrl-partition-mttr", "120"}, ""},
	} {
		fs := flag.NewFlagSet("test", flag.ContinueOnError)
		fs.SetOutput(io.Discard)
		Register(fs, 10).RegisterPlatform(fs)
		fs.Bool("churn", false, "")
		if err := fs.Parse(tc.args); err != nil {
			t.Fatal(err)
		}
		got := ""
		if err := CheckPairs(fs, extra...); err != nil {
			got = err.Error()
		}
		if got != tc.want {
			t.Errorf("%v: CheckPairs = %q, want %q", tc.args, got, tc.want)
		}
	}
}
