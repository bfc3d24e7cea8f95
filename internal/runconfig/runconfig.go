// Package runconfig is the command-line configuration shared by the
// megadc binaries. Register installs the flags every binary takes —
// the seed, the audit period, and tracing with its exports — and
// RegisterPlatform adds the scenario runner's topology, knob, policy and
// control-plane flags, with the same names and help text everywhere.
// CheckPairs rejects a flag given without the flag it takes effect
// with, and Recorder and Platform then turn the parsed values into a
// flight recorder and a core.Topology/core.Config.
package runconfig

import (
	"flag"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"megadc/internal/core"
	"megadc/internal/ctrlplane"
	"megadc/internal/metrics"
	"megadc/internal/policy"
	"megadc/internal/trace"
)

// Flags holds the parsed run-configuration flags.
type Flags struct {
	Seed  int64
	Audit int

	Trace         bool
	TraceEvents   string
	TraceTS       string
	TracePerfetto string
	TraceRing     int

	// Platform flags (RegisterPlatform).
	Pods, ServersPerPod, Switches, SwitchPods int
	ISPs, LinksPerISP                         int
	Knobs, Policy                             string
	Serialize                                 bool

	// Control-plane flags (RegisterPlatform). The partition MTBF/MTTR
	// drive the fault injector's partition class; they are validated
	// with the rest of the group.
	Ctrl                                               bool
	CtrlDelay, CtrlJitter, CtrlLoss, CtrlDup           float64
	CtrlSnapshot, CtrlPartitionMTBF, CtrlPartitionMTTR float64
}

// Register installs -seed, -audit (defaulting to auditEvery), and -trace
// with its export flags on fs.
func Register(fs *flag.FlagSet, auditEvery int) *Flags {
	f := &Flags{TraceRing: trace.DefaultRingSize}
	fs.Int64Var(&f.Seed, "seed", 1, "deterministic seed")
	fs.IntVar(&f.Audit, "audit", auditEvery, "run the conservation-law auditor every N Propagate calls (0 disables)")
	fs.BoolVar(&f.Trace, "trace", false, "attach the flight recorder + time-series sampler (DESIGN.md §10)")
	fs.StringVar(&f.TraceEvents, "trace-events", "", "with -trace: write the event log to this file ('-' = stdout)")
	fs.StringVar(&f.TraceTS, "trace-ts", "", "with -trace: write the time series to this file (.json = JSON, else CSV; '-' = stdout)")
	fs.StringVar(&f.TracePerfetto, "trace-perfetto", "", "with -trace: write Chrome trace-event JSON for Perfetto (ui.perfetto.dev; '-' = stdout)")
	return f
}

// RegisterPlatform installs the topology, knob, policy, trace-ring,
// reconfiguration and control-plane flags on fs.
func (f *Flags) RegisterPlatform(fs *flag.FlagSet) {
	fs.IntVar(&f.Pods, "pods", 4, "number of logical pods")
	fs.IntVar(&f.ServersPerPod, "servers", 8, "servers per pod")
	fs.IntVar(&f.Switches, "switches", 4, "LB switches")
	fs.IntVar(&f.SwitchPods, "switchpods", 0, "partition switches into this many §V-A switch pods (0 = flat)")
	fs.IntVar(&f.ISPs, "isps", 2, "ISPs (one access router each)")
	fs.IntVar(&f.LinksPerISP, "links", 2, "access links per ISP")
	fs.StringVar(&f.Knobs, "knobs", "", "comma-separated knob letters A..F (empty = all)")
	fs.StringVar(&f.Policy, "policy", "", "control policy (empty = greedy): "+strings.Join(policy.Names(), ", "))
	fs.IntVar(&f.TraceRing, "trace-ring", trace.DefaultRingSize, "with -trace: event ring capacity (older events are overwritten)")
	fs.BoolVar(&f.Serialize, "serialize", false, "serialize switch reconfiguration through the VIP/RIP request queue (§IV queue waits become measurable)")
	fs.BoolVar(&f.Ctrl, "ctrl", false, "route control decisions over the fallible async message bus (DESIGN.md §12)")
	fs.Float64Var(&f.CtrlDelay, "ctrl-delay", 0, "with -ctrl: mean one-way control-message delay (s)")
	fs.Float64Var(&f.CtrlJitter, "ctrl-jitter", 0, "with -ctrl: uniform delay jitter added per message (s)")
	fs.Float64Var(&f.CtrlLoss, "ctrl-loss", 0, "with -ctrl: per-message loss probability [0,1]")
	fs.Float64Var(&f.CtrlDup, "ctrl-dup", 0, "with -ctrl: per-message duplication probability [0,1]")
	fs.Float64Var(&f.CtrlSnapshot, "ctrl-snapshot", 0, "with -ctrl: pod-utilization snapshot period for the global manager (s; 0 = live reads)")
	fs.Float64Var(&f.CtrlPartitionMTBF, "ctrl-partition-mtbf", 0, "with -ctrl and -churn: mean time between pod control-plane partitions (s; 0 disables)")
	fs.Float64Var(&f.CtrlPartitionMTTR, "ctrl-partition-mttr", 120, "with -ctrl and -churn: mean partition duration before heal (s)")
}

// Pair is a flag-pairing rule: each of Flags takes effect only with
// Needs.
type Pair struct {
	Needs string
	Flags []string
}

// pairs are the rules of the flags Register and RegisterPlatform
// install.
var pairs = []Pair{
	{"trace", []string{"trace-events", "trace-ts", "trace-perfetto", "trace-ring"}},
	{"ctrl", []string{"ctrl-delay", "ctrl-jitter", "ctrl-loss", "ctrl-dup", "ctrl-snapshot",
		"ctrl-partition-mtbf", "ctrl-partition-mttr"}},
}

// CheckPairs applies the package's pairing rules, then extra, to the
// parsed fs. A flag given on the command line, whatever its value,
// needs the flag of each rule that lists it switched on: true, or
// non-zero (a zero MTBF disables what it times). The error names the
// first unmet rule of the first such flag in lexical order: "-X must
// be used with -Y". Nothing is ignored without a word, and a flag
// given at its default is no exception.
func CheckPairs(fs *flag.FlagSet, extra ...Pair) error {
	on := func(name string) bool {
		switch v := fs.Lookup(name).Value.String(); v {
		case "", "false":
			return false
		default:
			x, err := strconv.ParseFloat(v, 64)
			return err != nil || x != 0
		}
	}
	rules := append(slices.Clip(pairs), extra...)
	var err error
	fs.Visit(func(fl *flag.Flag) {
		for _, r := range rules {
			if err == nil && slices.Contains(r.Flags, fl.Name) && !on(r.Needs) {
				err = fmt.Errorf("-%s must be used with -%s", fl.Name, r.Needs)
			}
		}
	})
	return err
}

// Recorder returns the flight recorder -trace asks for (nil without
// it), with the time-series sampler attached. It rejects unwritable
// export paths before a run burns time on an export that would fail at
// the end.
func (f *Flags) Recorder() (*trace.Recorder, error) {
	if !f.Trace {
		return nil, nil
	}
	if err := trace.EnsureWritable(f.TraceEvents, f.TraceTS, f.TracePerfetto); err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(f.TraceRing)
	rec.TS = &trace.Timeseries{}
	return rec, nil
}

// Export writes the trace artifacts the export flags name.
func (f *Flags) Export(rec *trace.Recorder) error {
	return trace.ExportFiles(rec, f.TraceEvents, f.TraceTS, f.TracePerfetto)
}

// Platform returns the topology and platform config the flags describe:
// SmallTopology and DefaultConfig with the flags applied, the flight
// recorder of -trace, and the control-plane bus recording its delivery
// latencies into reg.
func (f *Flags) Platform(reg *metrics.Registry) (core.Topology, core.Config, error) {
	topo := core.SmallTopology()
	topo.Pods, topo.ServersPerPod, topo.Switches = f.Pods, f.ServersPerPod, f.Switches
	topo.ISPs, topo.LinksPerISP, topo.SwitchPods = f.ISPs, f.LinksPerISP, f.SwitchPods
	topo.Seed = f.Seed

	cfg := core.DefaultConfig()
	cfg.AuditEvery = f.Audit
	cfg.SerializeReconfig = f.Serialize
	cfg.Policy = f.Policy
	rec, err := f.Recorder()
	if err != nil {
		return topo, cfg, err
	}
	cfg.Trace = rec
	if f.Ctrl {
		cfg.Ctrl.Enable = true
		cfg.Ctrl.Default = ctrlplane.LinkConfig{
			Delay: f.CtrlDelay, Jitter: f.CtrlJitter, LossProb: f.CtrlLoss, DupProb: f.CtrlDup,
		}
		cfg.Ctrl.SnapshotEvery = f.CtrlSnapshot
		cfg.Ctrl.Registry = reg
	}
	if f.Knobs != "" {
		ks, err := core.ParseKnobs(f.Knobs)
		if err != nil {
			return topo, cfg, err
		}
		cfg = cfg.WithKnobs(ks...)
	}
	return topo, cfg, nil
}
