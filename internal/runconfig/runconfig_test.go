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
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	f := Register(fs, 10)
	if platform {
		f.RegisterPlatform(fs)
	}
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return f
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

func TestPlatformRejectsInconsistentFlags(t *testing.T) {
	for _, args := range [][]string{
		{"-ctrl-delay", "1"},
		{"-ctrl-partition-mtbf", "600"},
		{"-knobs", "A,G"},
		{"-trace-events", "ev.log"},
	} {
		if _, _, err := parse(t, true, args...).Platform(nil); err == nil {
			t.Errorf("%v accepted", args)
		}
	}
	if rec, err := parse(t, false).Recorder(); rec != nil || err != nil {
		t.Errorf("no -trace: recorder %v, err %v", rec, err)
	}
}
