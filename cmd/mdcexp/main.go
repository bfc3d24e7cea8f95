// Command mdcexp regenerates the reproduction's experiment tables:
// E1–E18 (the paper's quantitative claims and proposed evaluations; see
// DESIGN.md §4) plus the extension experiments X1–X4 (energy, multi-DC,
// sessions, failures). Each experiment prints the same rows
// EXPERIMENTS.md records.
//
// Usage:
//
//	mdcexp                 # run every experiment at laptop scale
//	mdcexp -e e4           # run one experiment
//	mdcexp -full           # larger configurations (minutes)
//	mdcexp -seed 7         # change the deterministic seed
//	mdcexp -audit 1        # audit conservation laws on every Propagate (0 disables)
//	mdcexp -list           # list experiment ids and titles
//	mdcexp -json           # machine-readable output (one JSON doc per experiment)
//	mdcexp -trace -trace-events ev.log -e e4   # flight-record an experiment (DESIGN.md §10)
//	mdcexp -cpuprofile cpu.pprof -e e2   # profile an experiment
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"megadc/internal/exp"
	"megadc/internal/metrics"
	"megadc/internal/obs"
	"megadc/internal/profiling"
	"megadc/internal/runconfig"
)

func main() {
	run := runconfig.Register(flag.CommandLine, 10)
	var (
		id       = flag.String("e", "all", "experiment id (e1..e18, x1..x4) or 'all'")
		full     = flag.Bool("full", false, "run the larger configurations")
		list     = flag.Bool("list", false, "list experiments and exit")
		asJSON   = flag.Bool("json", false, "emit each table as a JSON document")
		asMD     = flag.Bool("md", false, "emit each table as GitHub-flavoured markdown")
		obsFlags = profiling.RegisterFlags(flag.CommandLine)
	)
	flag.Parse()
	if err := runconfig.CheckPairs(flag.CommandLine); err != nil {
		fmt.Fprintln(os.Stderr, "mdcexp:", err)
		os.Exit(1)
	}

	obsSession, err := obsFlags.Start()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mdcexp:", err)
		os.Exit(1)
	}
	defer obsSession.Stop()

	if *list {
		for _, e := range exp.All() {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return
	}

	opts := exp.Options{Full: *full, Seed: run.Seed, AuditEvery: run.Audit,
		Registry: metrics.NewRegistry()}
	if opts.Trace, err = run.Recorder(); err != nil {
		fmt.Fprintln(os.Stderr, "mdcexp:", err)
		os.Exit(2)
	}
	var toRun []exp.Experiment
	if *id == "all" {
		toRun = exp.All()
	} else {
		e, ok := exp.Lookup(*id)
		if !ok {
			fmt.Fprintf(os.Stderr, "mdcexp: unknown experiment %q (use -list)\n", *id)
			os.Exit(2)
		}
		toRun = []exp.Experiment{e}
	}

	for _, e := range toRun {
		start := time.Now()
		tb, err := e.Run(opts)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mdcexp: %s: %v\n", e.ID, err)
			os.Exit(1)
		}
		if obsSession.Obs != nil {
			obsSession.Obs.Publish(opts.Registry, obs.Status{})
		}
		if *asJSON {
			enc := json.NewEncoder(os.Stdout)
			enc.SetIndent("", "  ")
			if err := enc.Encode(tb); err != nil {
				fmt.Fprintf(os.Stderr, "mdcexp: %s: %v\n", e.ID, err)
				os.Exit(1)
			}
			continue
		}
		if *asMD {
			tb.RenderMarkdown(os.Stdout)
			fmt.Println()
			continue
		}
		tb.Render(os.Stdout)
		fmt.Println()
		fmt.Fprintf(os.Stderr, "(%s in %v)\n", e.ID, time.Since(start).Round(time.Millisecond))
	}
	if opts.Trace != nil {
		if err := run.Export(opts.Trace); err != nil {
			fmt.Fprintln(os.Stderr, "mdcexp:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "trace: %d events recorded (%d in ring)\n",
			opts.Trace.Total(), opts.Trace.Len())
	}
}
