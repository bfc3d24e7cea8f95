package core

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"megadc/internal/cluster"
	"megadc/internal/lbswitch"
	"megadc/internal/netmodel"
)

// buildScale constructs a scale-tier platform and sanity-checks it.
func buildScale(t testing.TB, spec ScaleSpec) *Platform {
	t.Helper()
	p, _, _ := buildScaleTimed(t, spec)
	return p
}

// buildScaleTimed is buildScale reporting the build's and the audit's
// wall time apart: at paper scale the audit takes longer than the build.
func buildScaleTimed(t testing.TB, spec ScaleSpec) (p *Platform, build, audit time.Duration) {
	t.Helper()
	start := time.Now()
	p, err := BuildScalePlatform(spec)
	if err != nil {
		t.Fatal(err)
	}
	build = time.Since(start)
	if got := p.Cluster.NumVMs(); got != spec.NumVMs() {
		t.Fatalf("built %d VMs, want %d", got, spec.NumVMs())
	}
	start = time.Now()
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
	return p, build, time.Since(start)
}

// steadyAllocs warms the incremental path and measures a steady tick's
// heap allocations.
func steadyAllocs(p *Platform) float64 {
	i := 0
	tick := func() { p.SteadyTick(i); i++ }
	for ; i < 8; i++ {
		p.SteadyTick(i)
	}
	return testing.AllocsPerRun(100, tick)
}

// TestScaleBulkOnboarding always runs: a small tier built through the
// bulk loader must satisfy every invariant, audit clean, serve all its
// demand, and tick the steady path without allocating.
func TestScaleBulkOnboarding(t *testing.T) {
	spec := ScaleSpecFor(500)
	p := buildScale(t, spec)
	if rep := p.Audit(); !rep.OK() {
		t.Fatalf("bulk-built platform audits dirty:\n%s", rep)
	}
	if s := p.TotalSatisfaction(); s != 1 {
		t.Fatalf("satisfaction %v, want 1 (capacity sized to fit demand)", s)
	}
	if n := steadyAllocs(p); n != 0 {
		t.Fatalf("steady tick allocates %v times, want 0", n)
	}
}

// TestBulkLedgerCapacity: the bulk build reserves final capacity instead
// of regrowing lists 0→1→2→4→… or with 1.5× headroom. Allocator size
// classes round a reservation up by at most 1/8, while doubling leaves
// 32 slots for a list of 20, so a capacity within 1.25× of the length
// tells the two apart. Checked on Propagate's table of per-app ledgers
// and every ledger in it, the VIP owner table, every server's VM list
// and the share cache.
func TestBulkLedgerCapacity(t *testing.T) {
	spec := ScaleSpecFor(500)
	p := buildScale(t, spec)
	tight := func(n, c int) bool { return n > 0 && 4*c <= 5*n }
	if n, c := len(p.applied), cap(p.applied); n != spec.Apps || !tight(n, c) {
		t.Fatalf("%d ledgers in capacity %d, want %d", n, c, spec.Apps)
	}
	if n, c := len(p.vipOwner), cap(p.vipOwner); n != spec.Apps*spec.VIPsPerApp || !tight(n, c) {
		t.Fatalf("VIP owner table holds %d VIPs in capacity %d, want %d", n, c, spec.Apps*spec.VIPsPerApp)
	}
	for app, rec := range p.applied {
		if n, c := len(rec.vms), cap(rec.vms); !tight(n, c) {
			t.Fatalf("app %d ledger holds %d VMs in capacity %d", app, n, c)
		}
	}
	for _, id := range p.Cluster.ServerIDs() {
		vms := p.Cluster.Server(id).VMIDsView()
		if n, c := len(vms), cap(vms); !tight(n, c) {
			t.Fatalf("server %d lists %d VMs in capacity %d", id, n, c)
		}
	}
}

// TestBulkBuildNoPerRIPAllocs is the allocation gate of the numeric
// addresses and of VMs by value: a RIP in the bulk build is its pool
// offset plus a value in its switch entry, and a VM is a record in a
// chunk of the cluster's VM table that Reserve allocated, so an added
// instance costs no heap object of its own. Two builds on one topology
// differ only in instances per app; their allocation counts may differ
// by at most 0.01 per added instance (the table's chunks, 1024 VMs
// each; a heap object per VM or a string per RIP would make it 1).
// Under the race runtime a build's count wanders by dozens, so each
// size counts its fewest over three builds, each after a GC, and the
// difference is signed: a large build that counts fewer reads as a
// negative cost, not as a wrapped unsigned one.
func TestBulkBuildNoPerRIPAllocs(t *testing.T) {
	big := ScaleSpecFor(1000)
	big.InstancesPerApp = 40
	topo := big.Topology()
	build := func(instances int) (allocs int64, rips int) {
		spec := ScaleSpecFor(1000)
		spec.InstancesPerApp = instances
		spec.Workers = 1
		cfg := DefaultConfig()
		cfg.PropagateFullEvery = -1
		p, err := NewPlatform(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := p.OnboardAppsBulk(spec); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs) - int64(before.Mallocs), spec.NumVMs()
	}
	mallocs := func(instances int) (allocs int64, rips int) {
		allocs, rips = build(instances)
		for i := 0; i < 2; i++ {
			n, _ := build(instances)
			allocs = min(allocs, n)
		}
		return allocs, rips
	}
	small, smallRIPs := mallocs(20)
	large, largeRIPs := mallocs(40)
	added := largeRIPs - smallRIPs
	perInstance := float64(large-small) / float64(added)
	t.Logf("bulk build: %d allocations for %d RIPs, %d for %d: %.4f per added instance",
		small, smallRIPs, large, largeRIPs, perInstance)
	if perInstance > 0.01 {
		t.Errorf("%.4f allocations per added instance, want at most 0.01", perInstance)
	}
}

// TestBulkBuildNoPerAppAllocs is the allocation gate of the reserved
// records: the bulk build carves every per-app record — the cluster's
// application record and VM list, the fabric's VIP entry, RIP group and
// per-app VIP list, the DNS exposure list, the network's link list and
// Propagate's two ledger lists — from one allocation per kind, and
// slices its name from a string its plan shard shares, so an added app
// costs no heap object of its own (a record or list allocated per app
// would make it at least 1). Two builds on one topology differ only in
// app count; their allocation counts may differ by at most 0.5 per
// added app. Each size counts its fewest over three
// builds, each after a GC, as TestBulkBuildNoPerRIPAllocs does.
func TestBulkBuildNoPerAppAllocs(t *testing.T) {
	topo := ScaleSpecFor(1000).Topology()
	build := func(apps int) int64 {
		spec := ScaleSpecFor(1000)
		spec.Apps = apps
		spec.Workers = 1
		cfg := DefaultConfig()
		cfg.PropagateFullEvery = -1
		p, err := NewPlatform(topo, cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer p.Close()
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := p.OnboardAppsBulk(spec); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		return int64(after.Mallocs) - int64(before.Mallocs)
	}
	mallocs := func(apps int) int64 {
		allocs := build(apps)
		for i := 0; i < 2; i++ {
			allocs = min(allocs, build(apps))
		}
		return allocs
	}
	const small, large = 500, 1000
	a, b := mallocs(small), mallocs(large)
	perApp := float64(b-a) / float64(large-small)
	t.Logf("bulk build: %d allocations for %d apps, %d for %d: %.3f per added app", a, small, b, large, perApp)
	if perApp > 0.5 {
		t.Errorf("%.3f allocations per added app, want at most 0.5", perApp)
	}
}

// TestBulkReservationsDoNotAlias grows app 0 of a bulk build past every
// reservation its records were carved from — a second VIP (placed,
// registered in DNS and advertised), a second route for its first VIP,
// one more instance under that VIP, and a session — and checks after
// each step that app 1, whose records sit right after app 0's in every
// reservation, reads exactly as before: its DNS record, fabric VIP list,
// RIP group, route links, Propagate ledger and VM list. Every ledger
// entry must name a VIP and a VM of its own app, and the platform must
// audit clean with every Propagate checked against a full recompute.
func TestBulkReservationsDoNotAlias(t *testing.T) {
	spec := ScaleSpecFor(500)
	spec.Workers = 1
	cfg := DefaultConfig()
	cfg.PropagateFullEvery = -1
	cfg.PropagateDebugCheck = true
	cfg.PropagateWorkers = 1
	p, err := NewPlatform(spec.Topology(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.OnboardAppsBulk(spec); err != nil {
		t.Fatal(err)
	}
	snapshot := func(app cluster.AppID) string {
		var b strings.Builder
		vips, weights, err := p.DNS.Weights(app)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "dns %v %v\nfabric %v\n", vips, weights, p.Fabric.VIPsOfApp(app))
		for _, vip := range vips {
			h := p.handleOf(vip)
			g, _ := p.Fabric.GroupOf(h)
			fmt.Fprintf(&b, "vip %s links %v active %v group", vip, p.Net.AllLinks(h), p.Net.ActiveLinks(h))
			for j := 0; j < g.Len(); j++ {
				fmt.Fprintf(&b, " %d:%v", g.Tag(j), g.Weight(j))
			}
			b.WriteString("\n")
		}
		fmt.Fprintf(&b, "ledger %+v %+v\nvms %v\n", p.applied[app].vips, p.applied[app].vms, p.Cluster.App(app).VMIDs())
		return b.String()
	}
	ownLedgers := func(step string) {
		for _, app := range []cluster.AppID{0, 1} {
			rec := &p.applied[app]
			for _, av := range rec.vips {
				if owner := p.vipOwner[av.vip]; owner != app {
					t.Fatalf("after %s: app %d ledger lists VIP %d of app %d", step, app, av.vip, owner)
				}
			}
			for _, e := range rec.vms {
				if vm := p.Cluster.VM(e.vm); vm == nil || vm.App != app {
					t.Fatalf("after %s: app %d ledger lists VM %d of another app", step, app, e.vm)
				}
			}
		}
	}
	want := snapshot(1)
	check := func(step string) {
		t.Helper()
		p.Propagate()
		if got := snapshot(1); got != want {
			t.Fatalf("after %s app 1 changed:\n%s\nwant:\n%s", step, got, want)
		}
		ownLedgers(step)
	}

	first := p.Fabric.VIPsOfApp(0)[0]
	h0 := p.handleOf(first)
	vip, _, err := p.allocVIP(0)
	if err != nil {
		t.Fatal(err)
	}
	if err := p.DNS.Register(0, vip, p.handleOf(vip), 1); err != nil {
		t.Fatal(err)
	}
	if err := p.Net.Advertise(p.handleOf(vip), p.pickAdvertLink(), false); err != nil {
		t.Fatal(err)
	}
	check("a second VIP")
	// A link neither app uses, so an entry written into app 1's list
	// could not pass for its own.
	h1 := p.handleOf(p.Fabric.VIPsOfApp(1)[0])
	link := netmodel.LinkID(0)
	for slices.Contains(p.Net.AllLinks(h0), link) || slices.Contains(p.Net.AllLinks(h1), link) {
		link++
	}
	if err := p.Net.Advertise(h0, link, false); err != nil {
		t.Fatal(err)
	}
	check("a second route")
	vm, err := p.DeployInstanceFor(0, p.podOrder[0], first)
	if err != nil {
		t.Fatal(err)
	}
	check("a deployment")
	p.SessionOpened(h0, vm.ID, cluster.Resources{CPU: 0.1, NetMbps: 0.5})
	check("a session")
	if g, _ := p.Fabric.GroupOf(h0); g.Len() != spec.InstancesPerApp+1 {
		t.Fatalf("app 0's group holds %d RIPs, want %d", g.Len(), spec.InstancesPerApp+1)
	}
	if n := len(p.applied[0].vips); n != 2 {
		t.Fatalf("app 0's ledger holds %d VIPs, want 2", n)
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
}

// fabricDigest renders the complete VIP/RIP configuration of every
// switch — membership, order, weights, tags, reconfig counts — as one
// comparable string.
func fabricDigest(p *Platform) string {
	var b strings.Builder
	var rips []lbswitch.RIP
	var tags []int32
	var weights []float64
	for i := 0; i < p.Fabric.NumSwitches(); i++ {
		sw := p.Fabric.Switch(lbswitch.SwitchID(i))
		fmt.Fprintf(&b, "sw%d reconfigs=%d\n", i, sw.Reconfigs)
		for _, vip := range sw.VIPs() {
			rips, tags, weights = rips[:0], tags[:0], weights[:0]
			rips, tags, weights, _ = sw.AppendWeightsTagged(vip, rips, tags, weights)
			fmt.Fprintf(&b, " %s load=%v rips=%v tags=%v weights=%v\n", vip, sw.VIPLoad(vip), rips, tags, weights)
		}
	}
	return b.String()
}

// bindingDigest renders the cluster and the platform's RIP bindings:
// every VM record, every server's VM list and used resources, and the
// vmRIP, vmHome and backendGen tables; %#v prints resources at full
// precision, where their String rounds.
func bindingDigest(p *Platform) string {
	var b strings.Builder
	for _, id := range p.Cluster.VMIDs() {
		fmt.Fprintf(&b, "%#v\n", *p.Cluster.VM(id))
	}
	for _, id := range p.Cluster.ServerIDs() {
		s := p.Cluster.Server(id)
		fmt.Fprintf(&b, "server %d %v used=%#v\n", id, s.VMIDsView(), s.Used())
	}
	fmt.Fprintf(&b, "rip=%v\nhome=%v\ngen=%v\n", p.vmRIP, p.vmHome, p.backendGen)
	return b.String()
}

// TestScaleOnboardWorkersIdentical pins the bulk loader's sharding
// contract: any worker count builds bit-identical state — same VMs,
// server lists and RIP bindings, same fabric configuration (down to
// tags and reconfig counters), same propagated loads, same
// satisfaction.
func TestScaleOnboardWorkersIdentical(t *testing.T) {
	spec := ScaleSpecFor(500)
	spec.Workers = 1
	base := buildScale(t, spec)
	baseBind := bindingDigest(base)
	baseFab := fabricDigest(base)
	baseState := base.captureState()
	for _, w := range []int{2, 3, 8} {
		spec.Workers = w
		p := buildScale(t, spec)
		if d := bindingDigest(p); d != baseBind {
			t.Fatalf("workers=%d cluster or RIP bindings differ from workers=1", w)
		}
		if d := fabricDigest(p); d != baseFab {
			t.Fatalf("workers=%d fabric differs from workers=1", w)
		}
		if d := baseState.diff(p.captureState()); d != "" {
			t.Fatalf("workers=%d propagated state differs: %s", w, d)
		}
		if a, b := base.TotalSatisfaction(), p.TotalSatisfaction(); a != b {
			t.Fatalf("workers=%d satisfaction %v != %v", w, b, a)
		}
	}
}

// TestScaleSmoke10K is the CI scale smoke (set MEGADC_SCALE_SMOKE=1):
// the 10K-server tier constructs, audits clean, runs 100 steady ticks,
// the steady tick stays allocation-free, and a second control round with
// no demand change does no per-item work.
func TestScaleSmoke10K(t *testing.T) {
	if os.Getenv("MEGADC_SCALE_SMOKE") == "" {
		t.Skip("set MEGADC_SCALE_SMOKE=1 to run the 10K scale smoke")
	}
	spec := ScaleSpecFor(10_000)
	p, build, audit := buildScaleTimed(t, spec)
	t.Logf("constructed %d servers / %d apps / %d VMs in %v, audited in %v",
		spec.Servers, spec.Apps, spec.NumVMs(), build, audit)
	if rep := p.Audit(); !rep.OK() {
		t.Fatalf("10K platform audits dirty:\n%s", rep)
	}
	if n := steadyAllocs(p); n != 0 {
		t.Fatalf("steady tick allocates %v times, want 0", n)
	}
	start := time.Now()
	for i := 0; i < 100; i++ {
		p.SteadyTick(i)
	}
	t.Logf("100 steady ticks in %v", time.Since(start))
	// Deterministic work check: a control round after a round with no
	// demand change re-evaluates no knob-F candidate and visits no RIP
	// group in the inter-pod scan. Step times are logged, not bounded.
	for round := 1; round <= 2; round++ {
		p.work = managerWork{}
		start := time.Now()
		p.Global.Step()
		global := time.Since(start)
		start = time.Now()
		for _, pm := range p.pods {
			pm.Step()
		}
		t.Logf("round %d: global step %v, all pod steps %v, work %+v", round, global, time.Since(start), p.work)
	}
	if p.work != (managerWork{}) {
		t.Fatalf("the second control round did work %+v, want none", p.work)
	}
}

// TestPaperScale300K is the acceptance run (set MEGADC_PAPER_SCALE=1):
// the full paper-scale platform — 300K servers, 300K apps, 6M RIPs —
// constructs in one process and runs ≥100 steady ticks.
func TestPaperScale300K(t *testing.T) {
	if os.Getenv("MEGADC_PAPER_SCALE") == "" {
		t.Skip("set MEGADC_PAPER_SCALE=1 to run the 300K acceptance build")
	}
	spec := PaperScaleSpec()
	p, build, audit := buildScaleTimed(t, spec)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.Logf("constructed %d servers / %d apps / %d VMs in %v, audited in %v, heap %d MB",
		spec.Servers, spec.Apps, spec.NumVMs(), build, audit, ms.HeapSys>>20)
	if s := p.TotalSatisfaction(); s != 1 {
		t.Fatalf("satisfaction %v, want 1", s)
	}
	start := time.Now()
	for i := 0; i < 128; i++ {
		p.SteadyTick(i)
	}
	t.Logf("128 steady ticks in %v (%v/tick)", time.Since(start), time.Since(start)/128)
	if n := steadyAllocs(p); n != 0 {
		t.Fatalf("steady tick allocates %v times, want 0", n)
	}
}

// TestScaleDemandCrossCheck runs the incremental demand path at a scale
// tier and compares it bit for bit against a full recompute. Zero
// demands and re-raises take VIPs off their links and back on, and a
// PropagateFull every 500 calls clears and re-adds everything. The debug
// cross-check runs on every call (two slice captures and a full
// recompute, a few milliseconds at this tier) and before every
// PropagateFull; the platform must end with clean invariants and a
// clean audit.
func TestScaleDemandCrossCheck(t *testing.T) {
	spec := ScaleSpecFor(2000)
	p := buildScale(t, spec)
	rng := rand.New(rand.NewSource(5))
	for i := 1; i <= 2000; i++ {
		app := cluster.AppID(rng.Intn(spec.Apps))
		d := spec.Demand.Scale(0.8 + 0.4*rng.Float64())
		if rng.Intn(4) == 0 {
			d = Demand{}
		}
		p.Cfg.PropagateDebugCheck = true
		p.SetAppDemand(app, d) // panics if incremental diverges from full
		if i%500 == 0 {
			p.debugCheckAgainstFull()
			p.PropagateFull()
		}
	}
	if err := p.AuditErr(); err != nil {
		t.Fatal(err)
	}
	if rep := p.Audit(); !rep.OK() {
		t.Fatalf("audit after demand churn:\n%s", rep)
	}
}
