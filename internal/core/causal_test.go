package core

import (
	"bytes"
	"fmt"
	"testing"

	"megadc/internal/causal"
	"megadc/internal/cluster"
	"megadc/internal/ctrlplane"
	"megadc/internal/trace"
)

// causalConfig returns a traced config with a decision-provenance
// assembler attached.
func causalConfig() (Config, *causal.Assembler) {
	cfg, _ := tracedConfig()
	asm := causal.New(nil)
	cfg.Causal = asm
	return cfg, asm
}

// TestCausalTreeDeterminism runs the seeded chaos scenario twice and
// requires the rendered span trees to match byte-for-byte — the trees
// are a replayable artifact, like the event log
// (TestTracedRunDeterminism). A third run at a different Propagate
// worker count must render identically too: CauseIDs are allocated
// only in single-threaded control code, so data-path parallelism can
// never reorder them.
func TestCausalTreeDeterminism(t *testing.T) {
	const nOps = 60
	render := func(workers int) []byte {
		cfg, asm := causalConfig()
		cfg.AuditEvery = 10
		cfg.PropagateWorkers = workers
		runPropagationScenario(t, cfg, nOps)
		var b bytes.Buffer
		if err := asm.WriteAll(&b); err != nil {
			t.Fatal(err)
		}
		if len(asm.Causes()) == 0 {
			t.Fatal("scenario assembled no decision trees")
		}
		return b.Bytes()
	}
	a := render(1)
	b := render(1)
	if !bytes.Equal(a, b) {
		t.Error("span trees differ across identically-seeded runs")
	}
	c := render(4)
	if !bytes.Equal(a, c) {
		t.Error("span trees differ across Propagate worker counts")
	}
}

// TestCausalInheritanceUnderFaults is the fault-path provenance
// acceptance test, riding the TestDrainRetryTimeoutAccounting
// scenario: every ack on the CSM→Global link is lost, so each transfer
// step of the knob-B drain protocol delivers, retries to its cap, and
// dead-letters. All of those attempts — and the forced transfer's
// broken session (I4.BROKEN_ACCOUNTED) — must land in a single tree
// under the one CauseID the decision allocated, with a terminal
// dead-letter node closing an attempt chain.
func TestCausalInheritanceUnderFaults(t *testing.T) {
	cfg, asm := causalConfig()
	cfg.Ctrl.Enable = true
	cfg.Ctrl.Links = map[string]ctrlplane.LinkConfig{
		ctrlplane.LinkKey(ctrlplane.CSM, ctrlplane.Global): {LossProb: 1},
	}
	p := newTestPlatform(t, cfg)
	app, err := p.OnboardApp("drainy", defaultSlice(), 2, Demand{CPU: 1, Mbps: 100})
	if err != nil {
		t.Fatal(err)
	}
	vip := p.Fabric.VIPsOfApp(app.ID)[0]
	home, _ := p.Fabric.HomeOf(vip)
	dstID := home + 1
	if int(dstID) >= p.Fabric.NumSwitches() {
		dstID = 0
	}
	// A sticky tracked connection forces the third transfer attempt to
	// break it.
	if _, _, _, err := p.Fabric.Switch(home).OpenConn(vip, p.Rand()); err != nil {
		t.Fatal(err)
	}
	p.Global.startDrainAndTransfer(vip, dstID)
	p.Eng.RunUntil(6000)

	// Exactly one knob-B decision was taken; find its tree.
	var tree *causal.Tree
	for _, c := range asm.Causes() {
		tr := asm.Tree(c)
		if Knob(tr.Knob) == KnobVIPTransfer {
			if tree != nil {
				t.Fatalf("two vip-transfer trees (causes %d and %d), want one decision", tree.Cause, tr.Cause)
			}
			tree = tr
		}
	}
	if tree == nil {
		t.Fatal("no vip-transfer decision tree assembled")
	}
	if !tree.DeadLettered {
		t.Error("tree not marked dead-lettered despite the lossy ack link")
	}
	if tree.Broken != 1 {
		t.Errorf("tree.Broken = %d, want 1 (I4.BROKEN_ACCOUNTED: the forced break attributed to its decision)", tree.Broken)
	}
	if !tree.Effected {
		t.Error("tree never saw its effect (the transfer did land)")
	}

	// Every RPC event in the recorder carries that single CauseID — the
	// retries and dead letters of the drain are the only bus traffic in
	// this scenario, and none may escape the decision's scope.
	rpcs := 0
	for _, e := range cfg.Trace.Events() {
		switch e.Type {
		case trace.EvRPCSend, trace.EvRPCDeliver, trace.EvRPCDrop,
			trace.EvRPCRetry, trace.EvRPCAck, trace.EvRPCDeadLetter:
			rpcs++
			if e.Cause != tree.Cause {
				t.Errorf("RPC event %s carries cause %d, want %d", e.String(), e.Cause, tree.Cause)
			}
		}
	}
	if rpcs == 0 {
		t.Fatal("no RPC events recorded — the bus never engaged")
	}
	if p.Ctrl().Retries == 0 || p.Ctrl().DeadLetters == 0 {
		t.Fatalf("retries=%d dead_letters=%d — fault injection inert", p.Ctrl().Retries, p.Ctrl().DeadLetters)
	}

	// At least one attempt chain under the root terminates in a
	// dead-letter node.
	terminal := false
	for _, attempt := range tree.Root.Children {
		if attempt.Event.Type != trace.EvRPCSend || len(attempt.Children) == 0 {
			continue
		}
		if attempt.Children[len(attempt.Children)-1].Event.Type == trace.EvRPCDeadLetter {
			terminal = true
		}
	}
	if !terminal {
		t.Error("no attempt chain ends in a terminal dead-letter node")
	}

	// The actuation histogram observed the decision exactly once.
	h := asm.Registry().Histogram("causal.actuation.vip-transfer.high")
	if h.Count() != 1 {
		t.Errorf("actuation histogram count = %d, want 1 (one sample per decision)", h.Count())
	}
}

// TestCausalIdleAllocFree pins the steady incremental Propagate tick at
// zero heap allocations with the flight recorder AND the causal
// assembler wired: events without a CauseID return from the assembler
// immediately, so provenance enabled-but-idle costs nothing on the
// data path.
func TestCausalIdleAllocFree(t *testing.T) {
	topo := SmallTopology()
	cfg, asm := causalConfig()
	cfg.VIPsPerApp = 2
	cfg.PropagateWorkers = 1
	cfg.PropagateFullEvery = -1
	p, err := NewPlatform(topo, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3*parallelThreshold; i++ {
		d := Demand{CPU: 0.5 + float64(i%7)*0.31, Mbps: 10 + float64(i%11)*3.7}
		if _, err := p.OnboardApp(fmt.Sprintf("ci-%d", i),
			cluster.Resources{CPU: 0.2, MemMB: 128, NetMbps: 8}, 1, d); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 3; i++ {
		p.PropagateFull()
	}
	apps := p.Cluster.AppIDs()
	i := 0
	if n := testing.AllocsPerRun(200, func() {
		app := apps[i%len(apps)]
		p.SetAppDemand(app, Demand{CPU: 0.5 + float64(i%5)*0.1, Mbps: 10 + float64(i%3)})
		i++
	}); n != 0 {
		t.Fatalf("steady tick with causal wired allocates %v times, want 0", n)
	}
	if len(asm.Causes()) != 0 {
		t.Fatalf("data-path ticks opened %d decision trees, want 0", len(asm.Causes()))
	}
}
