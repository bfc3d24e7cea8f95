package causal

import (
	"strings"
	"testing"

	"megadc/internal/ipv4"
	"megadc/internal/trace"
)

// feed hands events to an assembler the way the recorder's OnEvent hook
// does, numbering them in recording order.
type feed struct {
	a   *Assembler
	seq uint64
}

func (f *feed) ev(t float64, typ trace.Type, cause uint64, a, b float64, refs ...trace.Ref) {
	f.seq++
	e := trace.Event{Seq: f.seq, T: t, Type: typ, Cause: cause, A: a, B: b}
	copy(e.Refs[:], refs)
	f.a.Handle(&e)
}

func (f *feed) failed(t float64, typ trace.Type, cause uint64) {
	f.seq++
	f.a.Handle(&trace.Event{Seq: f.seq, T: t, Type: typ, Cause: cause, Err: 1})
}

// childTypes lists the event types of n's children in order.
func childTypes(n *Node) []trace.Type {
	var out []trace.Type
	for _, c := range n.Children {
		out = append(out, c.Event.Type)
	}
	return out
}

func sameTypes(t *testing.T, what string, got []trace.Type, want ...trace.Type) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %v, want %v", what, got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: %v, want %v", what, got, want)
		}
	}
}

// TestGroupingAndNesting checks that events group by CauseID, that RPC
// attempts nest under their send and request stages under their submit,
// and that everything else hangs off the decision root.
func TestGroupingAndNesting(t *testing.T) {
	f := &feed{a: New(nil)}
	f.ev(0, trace.EvDecision, 1, 1, 2, trace.VIP(ipv4.MustParse("203.0.113.1")))
	f.ev(1, trace.EvDecision, 2, 4, 0, trace.VM(7))
	f.ev(1, trace.EvRPCSend, 1, 10, 1)
	f.ev(2, trace.EvResizeVM, 2, 1, 2, trace.VM(7))
	f.ev(2, trace.EvHealth, 0, 0, 1) // no cause: ignored
	f.ev(3, trace.EvRPCRetry, 1, 10, 2)
	f.ev(4, trace.EvRPCDeliver, 1, 10, 0.5)
	f.ev(4, trace.EvReqSubmit, 1, 2, 5)
	f.ev(5, trace.EvRPCAck, 1, 10, 1)
	f.ev(5, trace.EvRPCDeliver, 1, 11, 0.5) // unknown message: under the root
	f.ev(6, trace.EvReqProcess, 1, 2, 5)
	f.ev(7, trace.EvReqRequeue, 1, 2, 5)
	f.ev(7, trace.EvReqSubmit, 1, 2, 6) // the requeued request's new chain
	f.ev(9, trace.EvReqDone, 1, 2, 6)
	f.ev(9, trace.EvDeploy, 99, 0, 0) // cause never opened: ignored

	if got := f.a.Causes(); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("causes = %v, want [1 2]", got)
	}
	t1 := f.a.Tree(1)
	if t1.Knob != 1 || t1.Priority != 2 || t1.Start != 0 || t1.End != 9 || t1.Events != 11 {
		t.Errorf("tree 1: knob %d prio %d span %v..%v events %d", t1.Knob, t1.Priority, t1.Start, t1.End, t1.Events)
	}
	root := t1.Root
	sameTypes(t, "tree 1 root", childTypes(root),
		trace.EvRPCSend, trace.EvReqSubmit, trace.EvRPCDeliver, trace.EvReqSubmit)
	sameTypes(t, "rpc 10", childTypes(root.Children[0]),
		trace.EvRPCRetry, trace.EvRPCDeliver, trace.EvRPCAck)
	sameTypes(t, "request 5", childTypes(root.Children[1]), trace.EvReqProcess, trace.EvReqRequeue)
	sameTypes(t, "request 6", childTypes(root.Children[3]), trace.EvReqDone)

	t2 := f.a.Tree(2)
	if t2.Events != 2 || t2.Start != 1 || t2.End != 2 {
		t.Errorf("tree 2: events %d span %v..%v", t2.Events, t2.Start, t2.End)
	}
	sameTypes(t, "tree 2 root", childTypes(t2.Root), trace.EvResizeVM)
	if f.a.Tree(99) != nil {
		t.Error("an event without a decision opened a tree")
	}

	// A second root for an open cause is ignored.
	f.ev(10, trace.EvDecision, 1, 3, 1)
	if t1 := f.a.Tree(1); t1.Knob != 1 || t1.Events != 11 {
		t.Errorf("duplicate root changed tree 1: knob %d events %d", t1.Knob, t1.Events)
	}
	if n := f.a.Registry().Counter("causal.decisions").Value(); n != 2 {
		t.Errorf("causal.decisions = %d, want 2", n)
	}
}

// TestEffectLatency checks EffectAt and the causal.actuation histogram:
// one sample per decision, at its first successful effect.
func TestEffectLatency(t *testing.T) {
	f := &feed{a: New(nil)}
	f.ev(10, trace.EvDecision, 1, 1, 2)
	f.ev(11, trace.EvDrainStart, 1, 1, 65) // a step, not an effect
	f.failed(12, trace.EvReqDone, 1)       // a failed request is no effect
	f.failed(13, trace.EvTransferVIP, 1)
	f.ev(14, trace.EvTransferVIP, 1, 0, 0)
	f.ev(15, trace.EvDrainFinish, 1, 1, 0) // later effect: no second sample
	f.ev(20, trace.EvDecision, 2, 4, 0)
	f.ev(22, trace.EvReqSubmit, 2, 0, 3)
	f.ev(25, trace.EvReqDone, 2, 0, 3)

	t1 := f.a.Tree(1)
	if !t1.Effected || t1.EffectAt != 14 || t1.End != 15 {
		t.Errorf("tree 1: effected %v at %v, end %v; want true at 14, end 15", t1.Effected, t1.EffectAt, t1.End)
	}
	reg := f.a.Registry()
	h := reg.Histogram("causal.actuation.vip-transfer.high")
	if h.Count() != 1 || h.Sum() != 4 {
		t.Errorf("vip-transfer.high: count %d sum %v, want 1 and 4", h.Count(), h.Sum())
	}
	h = reg.Histogram("causal.actuation.vm-resize.low")
	if h.Count() != 1 || h.Sum() != 5 {
		t.Errorf("vm-resize.low: count %d sum %v, want 1 and 5", h.Count(), h.Sum())
	}
	if t2 := f.a.Tree(2); !t2.Effected || t2.EffectAt != 25 {
		t.Errorf("tree 2: effected %v at %v; want true at 25", t2.Effected, t2.EffectAt)
	}
}

// TestEvictionKeepsCounters checks that the tree cap evicts the oldest tree
// while the counters keep counting every decision.
func TestEvictionKeepsCounters(t *testing.T) {
	f := &feed{a: New(nil)}
	f.a.maxTrees = 2
	for c := uint64(1); c <= 3; c++ {
		f.ev(float64(c), trace.EvDecision, c, 0, 1)
	}
	if got := f.a.Causes(); len(got) != 2 || got[0] != 2 || got[1] != 3 {
		t.Fatalf("retained causes = %v, want [2 3]", got)
	}
	if f.a.Tree(1) != nil {
		t.Error("oldest tree not evicted")
	}
	f.ev(5, trace.EvExpose, 1, 0, 0) // the evicted decision's event is dropped
	f.a.AddBroken(1, 2)              // its broken sessions still count
	reg := f.a.Registry()
	for name, want := range map[string]int64{
		"causal.decisions": 3, "causal.evicted": 1, "causal.sessions_broken": 2,
	} {
		if n := reg.Counter(name).Value(); n != want {
			t.Errorf("%s = %d, want %d", name, n, want)
		}
	}
	if h := reg.Histogram("causal.actuation.selective-vip-exposure.normal"); h.Count() != 0 {
		t.Errorf("evicted decision observed an effect: count %d", h.Count())
	}
}

// TestAbandonedAndBroken checks the abandoned count (no effect and no
// dead letter) and the broken-session attribution.
func TestAbandonedAndBroken(t *testing.T) {
	f := &feed{a: New(nil)}
	f.ev(0, trace.EvDecision, 1, 3, 1)
	f.ev(1, trace.EvDeploy, 1, 0, 0) // effected
	f.ev(0, trace.EvDecision, 2, 2, 1)
	f.ev(1, trace.EvRPCSend, 2, 8, 1)
	f.ev(9, trace.EvRPCDeadLetter, 2, 8, 7) // dead-lettered
	f.ev(0, trace.EvDecision, 3, 1, 2)      // neither: abandoned
	f.ev(2, trace.EvDrainStart, 3, 1, 65)

	if n := f.a.Abandoned(); n != 1 {
		t.Errorf("abandoned = %d, want 1", n)
	}
	if !f.a.Tree(2).DeadLettered || f.a.Tree(1).DeadLettered {
		t.Error("dead-letter flag on the wrong tree")
	}
	reg := f.a.Registry()
	if n := reg.Counter("causal.deadlettered").Value(); n != 1 {
		t.Errorf("causal.deadlettered = %d, want 1", n)
	}
	f.a.PublishMetrics(10)
	if v := reg.Gauge("causal.abandoned").Value(); v != 1 {
		t.Errorf("causal.abandoned gauge = %v, want 1", v)
	}
	if v := reg.Gauge("causal.trees").Value(); v != 3 {
		t.Errorf("causal.trees gauge = %v, want 3", v)
	}

	f.a.AddBroken(3, 2)
	f.a.AddBroken(3, 1)
	f.a.AddBroken(3, 0)  // nothing broken: no-op
	f.a.AddBroken(3, -1) // never negative
	if b := f.a.Tree(3).Broken; b != 3 {
		t.Errorf("tree 3 broken = %d, want 3", b)
	}
	if n := reg.Counter("causal.sessions_broken").Value(); n != 3 {
		t.Errorf("causal.sessions_broken = %d, want 3", n)
	}
}

// TestWriteTreeStable pins the text rendering byte for byte.
func TestWriteTreeStable(t *testing.T) {
	build := func() *Assembler {
		f := &feed{a: New(nil)}
		f.ev(1, trace.EvDecision, 4, 1, 2, trace.VIP(ipv4.MustParse("198.51.0.1")), trace.SwitchRef(0), trace.SwitchRef(1))
		f.ev(2, trace.EvRPCSend, 4, 3, 1)
		f.ev(2.5, trace.EvRPCDeliver, 4, 3, 0.5)
		f.ev(2.5, trace.EvDNSWrite, 4, 0, 2, trace.App(1), trace.VIP(ipv4.MustParse("198.51.0.1")))
		f.ev(3, trace.EvRPCDeadLetter, 4, 3, 7)
		f.a.AddBroken(4, 2)
		f.ev(0, trace.EvDecision, 5, 4, 0)
		return f.a
	}
	want := "cause 4 knob=vip-transfer prio=high t=1..3 events=5 effect=+1.5s broken=2 dead-letter\n" +
		"  1 t=1 decision vip:198.51.0.1 switch:0 switch:1 a=1 b=2 cause=4\n" +
		"    2 t=2 rpc-send a=3 b=1 cause=4\n" +
		"      3 t=2.5 rpc-deliver a=3 b=0.5 cause=4\n" +
		"      5 t=3 rpc-dead-letter a=3 b=7 cause=4\n" +
		"    4 t=2.5 dns-write app:1 vip:198.51.0.1 a=0 b=2 cause=4\n"
	var sb strings.Builder
	if err := build().WriteTree(&sb, 4); err != nil {
		t.Fatal(err)
	}
	if sb.String() != want {
		t.Errorf("WriteTree:\n%s\nwant:\n%s", sb.String(), want)
	}

	var all, again strings.Builder
	if err := build().WriteAll(&all); err != nil {
		t.Fatal(err)
	}
	if err := build().WriteAll(&again); err != nil {
		t.Fatal(err)
	}
	tail := "cause 5 knob=vm-resize prio=low t=0..0 events=1\n" +
		"  6 t=0 decision a=4 b=0 cause=5\n"
	if all.String() != want+tail || again.String() != all.String() {
		t.Errorf("WriteAll:\n%s\nwant:\n%s", all.String(), want+tail)
	}
	if err := build().WriteTree(&sb, 99); err == nil {
		t.Error("WriteTree of an unknown cause succeeded")
	}
}

// TestNilAssembler checks that the methods a platform calls on an
// unset assembler are no-ops.
func TestNilAssembler(t *testing.T) {
	var a *Assembler
	a.AddBroken(1, 3)
	a.PublishMetrics(5)
	if a.Tree(1) != nil || a.Causes() != nil {
		t.Error("nil assembler reported state")
	}
	var sb strings.Builder
	if err := a.WriteAll(&sb); err != nil || sb.Len() != 0 {
		t.Errorf("nil WriteAll wrote %q, err %v", sb.String(), err)
	}
	if err := a.WriteTree(&sb, 1); err == nil {
		t.Error("nil WriteTree succeeded")
	}
}

// decisionCycle feeds one decision with the event shapes a bus-routed,
// serialized actuation produces: a retried, duplicated RPC, a requeued
// request and an effect.
func (f *feed) decisionCycle(c uint64) {
	at := float64(c)
	id := float64(c)
	f.ev(at, trace.EvDecision, c, 5, 1, trace.VIP(ipv4.MustParse("198.51.0.1")), trace.Pod(2))
	f.ev(at, trace.EvRPCSend, c, id, 1)
	f.ev(at+1, trace.EvRPCDrop, c, id, 1)
	f.ev(at+2, trace.EvRPCRetry, c, id, 2)
	f.ev(at+3, trace.EvRPCDeliver, c, id, 3)
	f.ev(at+3, trace.EvReqSubmit, c, 0, id)
	f.ev(at+4, trace.EvReqRequeue, c, 0, id)
	f.ev(at+4, trace.EvReqSubmit, c, 0, id+0.5)
	f.ev(at+5, trace.EvReqDone, c, 0, id+0.5)
	f.ev(at+6, trace.EvRPCAck, c, id, 3)
	f.ev(at+6, trace.EvAdjustWeights, c, 0, 0)
}

// TestAssemblerSteadyStateAllocFree checks that once the tree cap is
// reached, Handle allocates nothing: each new decision reuses the
// evicted tree's record and nodes, the counters and histograms are
// looked up once, and no tree keeps a map.
func TestAssemblerSteadyStateAllocFree(t *testing.T) {
	f := &feed{a: New(nil)}
	f.a.maxTrees = 16
	c := uint64(0)
	for ; c < 64; c++ { // fill the cap, then evict past it
		f.decisionCycle(c + 1)
	}
	allocs := testing.AllocsPerRun(500, func() {
		c++
		f.decisionCycle(c)
	})
	if allocs != 0 {
		t.Errorf("Handle at the cap: %v allocs per decision, want 0", allocs)
	}
	if n := len(f.a.Causes()); n != 16 {
		t.Errorf("%d trees retained, want 16", n)
	}
	reg := f.a.Registry()
	if n := reg.Counter("causal.evicted").Value(); n != int64(c)-16 {
		t.Errorf("causal.evicted = %d, want %d", n, c-16)
	}
	if n := reg.Histogram("causal.actuation.rip-weight-adjust.normal").Count(); n != c {
		t.Errorf("actuation histogram count = %d, want %d", n, c)
	}
}

// TestRecycledTreeStartsClean checks that a tree opened in an evicted
// tree's storage carries nothing of it: the evicted tree's RPC and
// request chains no longer catch events, and its flags, nodes and
// counts are gone.
func TestRecycledTreeStartsClean(t *testing.T) {
	f := &feed{a: New(nil)}
	f.a.maxTrees = 1
	f.ev(0, trace.EvDecision, 1, 1, 2)
	f.ev(1, trace.EvRPCSend, 1, 7, 1)
	f.ev(2, trace.EvReqSubmit, 1, 0, 9)
	f.ev(3, trace.EvRPCDeadLetter, 1, 7, 2)
	f.ev(3, trace.EvDNSWrite, 1, 0, 0)
	f.a.AddBroken(1, 4)
	old := f.a.Tree(1)

	f.ev(10, trace.EvDecision, 2, 4, 0)
	t2 := f.a.Tree(2)
	if t2 != old {
		t.Fatal("the new tree did not reuse the evicted tree's record")
	}
	f.ev(11, trace.EvRPCRetry, 2, 7, 2)   // message 7 was the evicted tree's
	f.ev(12, trace.EvReqProcess, 2, 0, 9) // and so was request 9
	sameTypes(t, "recycled root", childTypes(t2.Root), trace.EvRPCRetry, trace.EvReqProcess)
	for _, c := range t2.Root.Children {
		if len(c.Children) != 0 {
			t.Errorf("%v node kept %d stale children", c.Event.Type, len(c.Children))
		}
	}
	if t2.Cause != 2 || t2.Knob != 4 || t2.Events != 3 || t2.Start != 10 || t2.End != 12 ||
		t2.Effected || t2.DeadLettered || t2.Broken != 0 {
		t.Errorf("recycled tree = %+v, want a fresh cause-2 tree", *t2)
	}
	var sb strings.Builder
	if err := f.a.WriteAll(&sb); err != nil {
		t.Fatal(err)
	}
	want := "cause 2 knob=vm-resize prio=low t=10..12 events=3\n" +
		"  6 t=10 decision a=4 b=0 cause=2\n" +
		"    7 t=11 rpc-retry a=7 b=2 cause=2\n" +
		"    8 t=12 req-process a=0 b=9 cause=2\n"
	if sb.String() != want {
		t.Errorf("WriteAll:\n%s\nwant:\n%s", sb.String(), want)
	}
}

// TestChainKindsKeyedApart checks that an RPC chain and a request chain
// with the same key stay apart: a bus message ID and a request seq come
// from different counters and can be equal.
func TestChainKindsKeyedApart(t *testing.T) {
	f := &feed{a: New(nil)}
	f.ev(0, trace.EvDecision, 1, 5, 1)
	f.ev(1, trace.EvRPCSend, 1, 4, 1)
	f.ev(1, trace.EvReqSubmit, 1, 0, 4)
	f.ev(2, trace.EvRPCDeliver, 1, 4, 1)
	f.ev(3, trace.EvReqDone, 1, 0, 4)
	root := f.a.Tree(1).Root
	sameTypes(t, "root", childTypes(root), trace.EvRPCSend, trace.EvReqSubmit)
	sameTypes(t, "rpc 4", childTypes(root.Children[0]), trace.EvRPCDeliver)
	sameTypes(t, "request 4", childTypes(root.Children[1]), trace.EvReqDone)
}
