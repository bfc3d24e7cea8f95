package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"megadc/internal/audit"
	"megadc/internal/causal"
	"megadc/internal/cluster"
	"megadc/internal/ctrlplane"
	"megadc/internal/dnsctl"
	"megadc/internal/ids"
	"megadc/internal/lbswitch"
	"megadc/internal/netmodel"
	"megadc/internal/policy"
	"megadc/internal/sim"
	"megadc/internal/trace"
	"megadc/internal/viprip"
	"megadc/internal/workload"
)

// Demand is an application's offered load: total CPU across all its
// sessions and total external bandwidth.
type Demand struct {
	CPU  float64 // cores
	Mbps float64 // external traffic
}

// Scale returns the demand multiplied by k.
func (d Demand) Scale(k float64) Demand { return Demand{d.CPU * k, d.Mbps * k} }

// Topology describes the physical build-out of a platform.
type Topology struct {
	ISPs           int     // number of ISPs (one access router each)
	LinksPerISP    int     // access links per ISP (to distinct border routers)
	LinkMbps       float64 // capacity per access link
	BorderRouters  int
	Switches       int
	SwitchLimits   lbswitch.Limits
	Pods           int
	ServersPerPod  int
	ServerCapacity cluster.Resources
	DNSTTLSeconds  float64
	VIPPoolBase    string
	VIPPoolSize    uint32
	RIPPoolBase    string
	RIPPoolSize    uint32
	Seed           int64

	// SwitchPods > 1 enables the Section V-A hierarchy: the switches are
	// partitioned into that many logical switch pods and new VIPs are
	// allocated two-level (the hierarchy picks the least-pressured pod,
	// then the VIP/RIP manager picks the switch among that pod's
	// switches under the configured policy) instead of by a scan of
	// every switch.
	SwitchPods int
}

// SmallTopology returns a laptop-scale topology used by tests and the
// quickstart example: 2 ISPs × 2 links, 4 switches (Catalyst limits
// scaled 10×), 4 pods × 8 servers.
func SmallTopology() Topology {
	return Topology{
		ISPs:           2,
		LinksPerISP:    2,
		LinkMbps:       1000,
		BorderRouters:  2,
		Switches:       4,
		SwitchLimits:   lbswitch.CatalystCSM().Scaled(10),
		Pods:           4,
		ServersPerPod:  8,
		ServerCapacity: cluster.Resources{CPU: 8, MemMB: 16384, NetMbps: 1000},
		DNSTTLSeconds:  60,
		VIPPoolBase:    "198.51.0.0",
		VIPPoolSize:    65536,
		RIPPoolBase:    "10.0.0.0",
		RIPPoolSize:    1 << 20,
		Seed:           1,
	}
}

// validate rejects physical parameters that would otherwise panic deep
// in a substrate or quietly poison the model (a NaN TTL makes client
// caches never expire): the DNS TTL, the access-link capacity and every
// server capacity component must be positive and finite.
func (t Topology) validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"DNSTTLSeconds", t.DNSTTLSeconds},
		{"LinkMbps", t.LinkMbps},
		{"ServerCapacity.CPU", t.ServerCapacity.CPU},
		{"ServerCapacity.MemMB", t.ServerCapacity.MemMB},
		{"ServerCapacity.NetMbps", t.ServerCapacity.NetMbps},
	} {
		if !(f.v > 0) || math.IsInf(f.v, 0) {
			return fmt.Errorf("core: topology %s must be positive and finite, got %v", f.name, f.v)
		}
	}
	return nil
}

// Platform is one mega data center under management: all substrates plus
// the hierarchical managers. Construct with NewPlatform, onboard
// applications, drive demand, and Run the engine.
//
// Hot-path per-entity state lives in dense struct-of-arrays tables (see
// tables.go): cluster IDs are contiguous by construction, and VIPs carry
// the dense handles the Fabric assigns at first placement (DESIGN.md
// §22). Handle order is a pure function of the call sequence, so seeded
// runs assign identically — and nothing observable depends on the order
// itself (sorted outputs sort by address, not handle). RIPs get no index
// of their own: a RIP's bindings are kept by its VM's ID.
type Platform struct {
	Eng     *sim.Engine
	Cfg     Config
	Cluster *cluster.Cluster
	Fabric  *lbswitch.Fabric
	Net     *netmodel.Network
	DNS     *dnsctl.DNS
	VIPRIP  *viprip.Manager
	Global  *GlobalManager

	// SwitchHier is non-nil when the topology enabled Section V-A switch
	// pods; new VIP allocations then go through it.
	SwitchHier *viprip.Hierarchy

	// ctrl is the control-plane message bus every actuation routes
	// through (actuate.go); Cfg.Ctrl.Enable decides whether it is the
	// inline synchronous path or the fallible asynchronous one.
	ctrl *ctrlplane.Bus

	pods     []*PodManager   // indexed by PodID (dense)
	podOrder []cluster.PodID // 0..len-1, kept for iteration ergonomics

	// pol is the pluggable control policy resolved from Cfg.Policy
	// (DESIGN.md §15): its Placement half also drives the VIP/RIP
	// manager, its Steering half the global manager's knob C/D pod
	// choices. Seeded from the topology seed, never from engine
	// randomness.
	pol policy.Bundle

	// Demand and slice registries, indexed by AppID. The bitsets are
	// authoritative for membership; the value slots of cleared entries
	// are stale.
	appDemand   []Demand
	demandApps  ids.Bitset
	appSlice    []cluster.Resources
	appSliceSet ids.Bitset

	// RIP bindings, indexed by VMID (VMIDs are never reused): vmRIP is
	// the VM's RIP (0 = none) and vmHome the handle of the VIP it is
	// configured under (ids.None = none); both are set and cleared
	// together. The RIP → VM direction is the tag on the RIP's switch
	// entry, which names the VM (DESIGN.md §13).
	vmRIP  []lbswitch.RIP
	vmHome []ids.Index

	// Memoized backend CPU per switch (backends.go): backendGen is the
	// platform's half of each entry's validity key, bumped on VM,
	// binding and server-health changes; backendCPU holds the entries.
	// Both are indexed by SwitchID and sized once with the fabric.
	backendGen []uint64
	backendCPU []backendEntry

	linkRR int // round-robin cursor for VIP advertisement

	// activeVIPs remembers which VIPs carried load after the last
	// Propagate, so a full recompute can clear loads of VIPs whose
	// demand disappeared. It may temporarily hold VIPs whose load
	// already dropped to zero — always a superset of the VIPs with
	// nonzero state, which is what clearing correctness needs. Bitset
	// iteration is ascending by VIP index; per-VIP clears are canonical
	// assignments, so traversal order is not observable.
	activeVIPs ids.Bitset

	// Incremental propagation state (see propagate.go): dirty bitset
	// with scratch, VIP→owner table for resolving route changes and
	// ledger reads to apps, per-app ledgers of applied contributions
	// (the only record of the fluid part of every observable: traffic,
	// switch load, VM demand, which session updates read back to
	// rewrite canonical ledger+session sums), and the apps whose ledger
	// inputs a demand-only recompute may reuse.
	dirtyApps      ids.Bitset
	inputsOK       ids.Bitset
	dirtyScratch   []int32
	computeScratch []int32
	appScratch     []int32
	satScratch     []int32         // TotalSatisfaction's demanded apps
	vipOwner       []cluster.AppID // by VIP handle; -1 = unowned
	applied        []appApplied    // by AppID
	propagateTicks int64
	// activeScratch snapshots activeVIPs at the start of a full pass,
	// and written marks the VIPs the pass re-applied (propagateFull).
	activeScratch []int32
	written       ids.Bitset

	// checkBefore and checkAfter are the reusable captures of
	// Config.PropagateDebugCheck (debugCheckAgainstFull).
	checkBefore, checkAfter propState

	// Persistent parallel-compute pool (see propagate.go): long-lived
	// workers signalled per pass, so the parallel path allocates
	// nothing after warm-up.
	pool propPool

	// Stamp tables the managers' steps mark VIP handles and app IDs in
	// (see stampTable), shared because steps run one at a time.
	vipStamp stampTable
	appStamp stampTable

	// work counts the managers' per-item evaluations, so tests can check
	// that a step with nothing changed re-evaluates nothing.
	work managerWork

	// claims holds the managers' in-flight claims (actuate.go). A VIP
	// under a drain claim has its DNS exposure managed by the drain, so
	// exposure reconciliation leaves it alone.
	claims claimTable

	// acts holds the records of actions awaiting dispatch (actuate.go).
	acts sim.Pool[actuation]

	// Session-level demand overlay (see SessionOpened/SessionClosed):
	// discrete sessions contribute demand on top of the fluid model.
	// Dense tables grown on first touch; a slot past the end reads
	// zero (at). Never cleared wholesale.
	sessVM  []cluster.Resources // by VMID
	sessVIP []float64           // by VIP handle

	// The failure domains' health state machines, each holding its
	// components' pre-failure snapshots (see failures.go).
	srvFaults  faultDomain[cluster.ServerID, cluster.Resources]
	swFaults   faultDomain[lbswitch.SwitchID, lbswitch.Limits]
	linkFaults faultDomain[netmodel.LinkID, float64]

	// Invariant auditor state (see audit.go): the topology seed stamped
	// into violation reports, the last DNS generation seen per app for
	// the I2.GEN_MONOTONE check, and the violations accumulated by the
	// periodic Propagate hook (capped at maxAuditViolations).
	seed            int64
	auditLastGen    []int64 // by AppID
	auditViolations []audit.Violation
	auditDropped    int64

	// lastAuditCount is the violation count of the most recent audit
	// walk, sampled into the traced time series (see trace.go).
	lastAuditCount int
}

// NewPlatform builds a platform from a topology and config. Control
// loops are not started; call Start, or invoke manager steps directly.
func NewPlatform(topo Topology, cfg Config) (*Platform, error) {
	return NewPlatformOn(sim.New(topo.Seed), topo, cfg)
}

// NewPlatformOn builds a platform on an existing engine, so that several
// platforms (e.g. the data centers of a multidc.Federation) share one
// simulated clock.
func NewPlatformOn(eng *sim.Engine, topo Topology, cfg Config) (*Platform, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if topo.ISPs <= 0 || topo.LinksPerISP <= 0 || topo.BorderRouters <= 0 {
		return nil, fmt.Errorf("core: topology needs ISPs, links, and border routers")
	}
	if topo.Switches <= 0 || topo.Pods <= 0 || topo.ServersPerPod <= 0 {
		return nil, fmt.Errorf("core: topology needs switches, pods, and servers")
	}
	if err := topo.validate(); err != nil {
		return nil, err
	}
	fab := lbswitch.NewFabric()
	p := &Platform{
		Eng:     eng,
		Cfg:     cfg,
		Cluster: cluster.New(),
		Fabric:  fab,
		Net:     netmodel.New(fab.Addr),
		DNS:     dnsctl.New(topo.DNSTTLSeconds),

		seed: topo.Seed,
	}
	p.acts.New = func(x *actuation) { x.bind(p) }
	p.initFaultDomains()
	// Access network: each ISP gets one AR; each AR gets LinksPerISP
	// links to distinct border routers.
	for b := 0; b < topo.BorderRouters; b++ {
		p.Net.AddBorderRouter()
	}
	for i := 0; i < topo.ISPs; i++ {
		ar := p.Net.AddAccessRouter(fmt.Sprintf("isp-%d", i))
		for j := 0; j < topo.LinksPerISP; j++ {
			br := netmodel.BorderRouterID(j % topo.BorderRouters)
			if _, err := p.Net.AddLink(ar.ID, br, topo.LinkMbps, 1); err != nil {
				return nil, err
			}
		}
	}

	// LB switch fabric.
	for i := 0; i < topo.Switches; i++ {
		p.Fabric.AddSwitch(topo.SwitchLimits)
	}
	p.backendGen = make([]uint64, topo.Switches)
	p.backendCPU = make([]backendEntry, topo.Switches)

	// IP pools and the VIP/RIP manager.
	vipPool, err := viprip.NewIPPool(topo.VIPPoolBase, topo.VIPPoolSize)
	if err != nil {
		return nil, err
	}
	ripPool, err := viprip.NewIPPool(topo.RIPPoolBase, topo.RIPPoolSize)
	if err != nil {
		return nil, err
	}
	p.VIPRIP = viprip.NewManager(p.Fabric, vipPool, ripPool)
	// Pluggable control policy: resolve the configured name (empty →
	// greedy, the extracted historical strategy) and hand its placement
	// half to the VIP/RIP manager. The policy's private randomness, if
	// any, derives from the topology seed, so seeded runs stay
	// deterministic per policy.
	pol, err := policy.New(cfg.Policy, topo.Seed^0x706f6c) // "pol"
	if err != nil {
		return nil, err
	}
	p.pol = pol
	p.VIPRIP.SetPlacement(pol.Placement)
	if topo.SwitchPods > 1 {
		h, err := viprip.NewHierarchy(p.VIPRIP, topo.SwitchPods)
		if err != nil {
			return nil, err
		}
		p.SwitchHier = h
	}

	// Pods and servers, the servers' records carved from one allocation.
	p.Cluster.ReserveServers(topo.Pods * topo.ServersPerPod)
	for i := 0; i < topo.Pods; i++ {
		pod := p.Cluster.AddPod()
		for j := 0; j < topo.ServersPerPod; j++ {
			if _, err := p.Cluster.AddServer(pod.ID, topo.ServerCapacity); err != nil {
				return nil, err
			}
		}
		p.pods = append(p.pods, newPodManager(p, pod.ID))
		p.podOrder = append(p.podOrder, pod.ID)
	}

	// Dirty-tracking hooks: every substrate mutation that can shift
	// where demand lands marks the owning application for incremental
	// repropagation (see propagate.go).
	p.DNS.OnChange = p.markAppDirty
	p.Cluster.OnVMChange = func(vm *cluster.VM) { p.bumpVMBackend(vm.ID) }
	p.Net.OnRouteChange = p.markVIPDirty
	for i := 0; i < p.Fabric.NumSwitches(); i++ {
		p.Fabric.Switch(lbswitch.SwitchID(i)).OnReconfig = p.onSwitchReconfig
	}

	// Flight recorder: hand the simulation clock to the recorder and wire
	// it into the substrates. When cfg.Trace is nil every Record call
	// below and in the substrates is a nil-receiver no-op.
	if (cfg.Spans != nil || cfg.Causal != nil) && cfg.Trace == nil {
		// The span layer and the causal assembler are fed from recorder
		// events, so either without an explicit recorder gets a
		// default-sized one.
		cfg.Trace = trace.NewRecorder(trace.DefaultRingSize)
		p.Cfg.Trace = cfg.Trace
	}
	if cfg.Trace != nil {
		cfg.Trace.Now = eng.Now
		p.Fabric.SetTracer(cfg.Trace)
		p.VIPRIP.SetTracer(cfg.Trace)
		p.DNS.SetTracer(cfg.Trace)
	}

	// Observer fan-out: the span layer and the causal assembler both
	// subscribe to recorder events. Both are pure observers — no
	// simulation state, no randomness — so seeded runs stay byte-identical
	// with them on or off (TestObservabilityDoesNotPerturb,
	// TestTracingDoesNotPerturb).
	switch sp, ca := cfg.Spans, cfg.Causal; {
	case sp != nil && ca != nil:
		cfg.Trace.OnEvent = func(e *trace.Event) { sp.Handle(e); ca.Handle(e) }
	case sp != nil:
		cfg.Trace.OnEvent = sp.Handle
	case ca != nil:
		cfg.Trace.OnEvent = ca.Handle
	}

	// Span layer: wrap the DNS change hook to track convergence windows
	// (change bursts converge one TTL after their last change).
	// Scheduling the close callback adds engine events but consumes no
	// randomness.
	if sp := cfg.Spans; sp != nil {
		prevOnChange := p.DNS.OnChange
		p.DNS.OnChange = func(app cluster.AppID) {
			prevOnChange(app)
			deadline := sp.DNSChanged(eng.Now(), p.DNS.TTL())
			eng.At(deadline, func() { sp.CloseDNSWindow(deadline) })
		}
	}

	// Serialized control plane: route queued reconfiguration through the
	// single slow switch-configuration pipeline.
	if cfg.SerializeReconfig {
		p.VIPRIP.StartSerialized(eng, cfg.SwitchReconfigLatency)
	}

	// Control plane (DESIGN.md §12): every actuation travels over the
	// bus, which is always present. Disabled (the default) it applies each
	// call inline — the synchronous control plane. Enabled, decisions
	// become at-least-once messages over seeded, faultable links; the bus
	// seeds its own RNG (defaulting to the topology seed) so engine
	// randomness is never perturbed, and pods reconcile their deferred
	// local decisions when their partition heals.
	ctrlCfg := cfg.Ctrl
	if ctrlCfg.Seed == 0 {
		ctrlCfg.Seed = topo.Seed
	}
	p.ctrl = ctrlplane.New(eng, ctrlCfg)
	p.ctrl.SetTracer(cfg.Trace)
	p.ctrl.OnHeal = func(ep ctrlplane.Endpoint) {
		if id, ok := ctrlplane.PodOf(ep); ok {
			if pm := p.Pod(cluster.PodID(id)); pm != nil {
				pm.Reconcile()
			}
		}
	}

	p.Global = newGlobalManager(p)
	return p, nil
}

// Close stops the platform's parked Propagate worker goroutines, which
// otherwise keep the whole platform reachable until the process exits,
// and returns once they have exited. Callers that build many platforms
// in one process (experiment sweeps, tournaments, tests) should Close
// each when done. Close is idempotent; a closed platform stays usable,
// its Propagate computing sequentially (results are identical for any
// worker count).
func (p *Platform) Close() {
	for _, ch := range p.pool.start {
		close(ch)
	}
	p.pool.start = nil
	p.pool.closed = true
	p.pool.live.Wait()
}

// Ctrl returns the control-plane message bus. It is never nil; its
// Enabled method reports whether messages actually traverse faultable
// links (Cfg.Ctrl.Enable) or apply inline.
func (p *Platform) Ctrl() *ctrlplane.Bus { return p.ctrl }

// Causal returns the decision-provenance assembler (nil unless
// Cfg.Causal was set). Its methods are nil-safe.
func (p *Platform) Causal() *causal.Assembler { return p.Cfg.Causal }

// Policy returns the resolved control-policy bundle (Cfg.Policy);
// Policy().Stats carries the probe count E18 tabulates.
func (p *Platform) Policy() policy.Bundle { return p.pol }

// Pod returns the pod manager for the given pod.
func (p *Platform) Pod(id cluster.PodID) *PodManager {
	if id < 0 || int(id) >= len(p.pods) {
		return nil
	}
	return p.pods[id]
}

// PodManagers returns all pod managers in pod order.
func (p *Platform) PodManagers() []*PodManager {
	out := make([]*PodManager, len(p.pods))
	copy(out, p.pods)
	return out
}

// Rand returns the platform's deterministic random source.
func (p *Platform) Rand() *rand.Rand { return p.Eng.Rand() }

// Seed returns the topology seed the platform was built with. Optional
// subsystems (ctrlplane, requests) derive their own RNG seeds from it
// so that attaching them never perturbs the engine's main stream.
func (p *Platform) Seed() int64 { return p.seed }

// handleOf returns vip's fabric handle, or ids.None for an address that
// was never placed. Every VIP the platform registers in DNS or routes
// was placed first, so it has one.
func (p *Platform) handleOf(vip lbswitch.VIP) ids.Index {
	if h, ok := p.Fabric.Handle(vip); ok {
		return h
	}
	return ids.None
}

// sortByAddr sorts VIP handles into lexical address order, the only VIP
// order the platform lets reach an output (DESIGN.md §22).
func (p *Platform) sortByAddr(vis []ids.Index) {
	slices.SortFunc(vis, func(a, b ids.Index) int { return p.Fabric.Addr(a).Compare(p.Fabric.Addr(b)) })
}

// appDemandOf returns app's offered demand (zero when none registered).
func (p *Platform) appDemandOf(app cluster.AppID) Demand {
	if !p.demandApps.Get(int(app)) {
		return Demand{}
	}
	return p.appDemand[app]
}

// appSliceOf returns app's registered per-instance slice.
func (p *Platform) appSliceOf(app cluster.AppID) (cluster.Resources, bool) {
	if !p.appSliceSet.Get(int(app)) {
		return cluster.Resources{}, false
	}
	return p.appSlice[app], true
}

// RIPForVM resolves a VM to its RIP.
func (p *Platform) RIPForVM(vm cluster.VMID) (lbswitch.RIP, bool) {
	if vm < 0 || int(vm) >= len(p.vmRIP) || p.vmRIP[vm] == 0 {
		return 0, false
	}
	return p.vmRIP[vm], true
}

// vmHomeOf returns the handle of the VIP vm's RIP is configured under,
// or ids.None when vm has no RIP.
func (p *Platform) vmHomeOf(vm cluster.VMID) ids.Index {
	if vm < 0 || int(vm) >= len(p.vmHome) {
		return ids.None
	}
	return p.vmHome[vm]
}

// OnboardApp registers an application end to end: VIPs allocated on
// switches and registered in DNS, each VIP advertised over one access
// link (least-loaded first, per the paper each VIP is typically
// advertised at only one access router), and the initial VM instances
// placed across pods with RIPs configured under the app's VIPs.
func (p *Platform) OnboardApp(name string, slice cluster.Resources, instances int, demand Demand) (*cluster.Application, error) {
	app := p.Cluster.AddApp(name, slice)
	p.appSlice = growSlice(p.appSlice, int(app.ID)+1)
	p.appSlice[app.ID] = slice
	p.appSliceSet.Set(int(app.ID))

	for i := 0; i < p.Cfg.VIPsPerApp; i++ {
		vip, _, err := p.allocVIP(app.ID)
		if err != nil {
			return nil, fmt.Errorf("core: onboarding %s: %w", name, err)
		}
		h := p.handleOf(vip)
		if err := p.DNS.Register(app.ID, vip, h, 1); err != nil {
			return nil, err
		}
		link := p.pickAdvertLink()
		if err := p.Net.Advertise(h, link, false); err != nil {
			return nil, err
		}
	}

	for i := 0; i < instances; i++ {
		pod := p.podOrder[i%len(p.podOrder)]
		if _, err := p.DeployInstance(app.ID, pod); err != nil {
			return nil, fmt.Errorf("core: onboarding %s instance %d: %w", name, i, err)
		}
	}

	p.reconcileExposure(app.ID)
	p.SetAppDemand(app.ID, demand)
	return app, nil
}

// allocVIP allocates a VIP through the switch-pod hierarchy when the
// topology enabled it (Section V-A), or through the flat manager.
func (p *Platform) allocVIP(app cluster.AppID) (lbswitch.VIP, lbswitch.SwitchID, error) {
	if p.SwitchHier != nil {
		return p.SwitchHier.AddVIP(app)
	}
	return p.VIPRIP.AddVIP(app)
}

// pickAdvertLink chooses the access link with the lowest utilization,
// breaking ties round-robin so onboarding spreads VIPs over ISPs.
func (p *Platform) pickAdvertLink() netmodel.LinkID {
	n := p.Net.NumLinks()
	best := -1
	bestU := 0.0
	for i := 0; i < n; i++ {
		l := p.Net.Link(netmodel.LinkID((p.linkRR + i) % n))
		if !l.Serving() {
			continue
		}
		if u := l.Utilization(); best < 0 || u < bestU-1e-12 {
			best, bestU = int(l.ID), u
		}
	}
	if best < 0 {
		// Every link is down; advertise round-robin anyway so the VIP
		// has a route once a link repairs.
		best = p.linkRR % n
	}
	p.linkRR = (best + 1) % n
	return netmodel.LinkID(best)
}

// ErrNoRoom is returned by DeployInstance and DeployInstanceFor, itself
// and unwrapped, when no server in the pod has room for the app's slice.
// The managers hit it routinely while probing pods and discard it, so
// the miss allocates nothing.
var ErrNoRoom = errors.New("core: pod has no server with room for the slice")

// DeployInstance creates one VM instance of app in the given pod (on the
// server with the most free capacity), allocates its RIP, and configures
// the RIP under one of the app's VIPs. It returns the new VM. The caller
// is responsible for modeling deployment latency (knob D's cost); the
// state change itself is atomic.
func (p *Platform) DeployInstance(app cluster.AppID, pod cluster.PodID) (*cluster.VM, error) {
	return p.DeployInstanceFor(app, pod, 0)
}

// DeployInstanceFor is DeployInstance with an explicit target VIP: the
// new instance's RIP is configured under that VIP, so the deployment
// adds serving capacity exactly where an overloaded VIP needs it (the
// pod manager "needs to be aware of which VIPs its RIPs are mapped to",
// Section IV-F). A zero VIP lets the VIP/RIP manager choose.
func (p *Platform) DeployInstanceFor(app cluster.AppID, pod cluster.PodID, preferred lbswitch.VIP) (*cluster.VM, error) {
	slice, ok := p.appSliceOf(app)
	if !ok {
		a := p.Cluster.App(app)
		if a == nil {
			return nil, fmt.Errorf("core: unknown app %d", app)
		}
		slice = a.DefaultSlice
	}
	server := p.emptiestServer(pod, noServer, slice)
	if server == nil {
		return nil, ErrNoRoom
	}
	vm, err := p.Cluster.PlaceVM(app, server.ID, slice)
	if err != nil {
		return nil, err
	}
	if err := p.Cluster.Start(vm.ID); err != nil {
		return nil, err
	}
	rip, err := p.VIPRIP.AllocRIP()
	if err != nil {
		p.Cluster.RemoveVM(vm.ID)
		return nil, err
	}
	// Tag the switch entry with the VM: the tag is the only RIP → VM
	// mapping, so an untagged entry would back no VM.
	tag := int32(vm.ID)
	vip, sw, err := p.VIPRIP.AddRIP(app, rip, 1, preferred, tag)
	if err != nil && preferred != 0 {
		// The preferred VIP's switch may be RIP-full; fall back to any.
		vip, sw, err = p.VIPRIP.AddRIP(app, rip, 1, 0, tag)
	}
	if err != nil {
		p.VIPRIP.FreeRIP(rip)
		p.Cluster.RemoveVM(vm.ID)
		return nil, err
	}
	p.bindRIP(rip, vm.ID, vip, sw)
	p.reconcileExposure(app)
	return vm, nil
}

// bindRIP records vm's RIP and home VIP in the VM-indexed tables. home
// is the switch vip is homed on, whose memoized backend CPU the new
// binding invalidates. The caller tags the RIP's switch entry with vm.
func (p *Platform) bindRIP(rip lbswitch.RIP, vm cluster.VMID, vip lbswitch.VIP, home lbswitch.SwitchID) {
	p.vmRIP = growSlice(p.vmRIP, int(vm)+1)
	p.vmRIP[vm] = rip
	p.vmHome = growFill(p.vmHome, int(vm)+1, ids.None)
	p.vmHome[vm] = p.handleOf(vip)
	p.bumpBackend(home)
}

// vipOfVM returns the VIP the VM's RIP is configured under.
func (p *Platform) vipOfVM(vm cluster.VMID) (lbswitch.VIP, bool) {
	vi := p.vmHomeOf(vm)
	if vi == ids.None {
		return 0, false
	}
	return p.Fabric.Addr(vi), true
}

// reconcileExposure keeps DNS exposure consistent with serving capacity:
// a VIP with no RIPs configured must not be exposed (clients resolving
// to it would reach nothing), and a VIP that regained RIPs is re-exposed
// with weight 1. VIPs under a drain claim are left alone.
func (p *Platform) reconcileExposure(app cluster.AppID) {
	vips, ws, err := p.DNS.Weights(app)
	if err != nil {
		return
	}
	for i, vip := range vips {
		vi := p.handleOf(vip)
		if p.claims.held(drainClaim(vi)) {
			continue
		}
		home, ok := p.Fabric.Home(vi)
		if !ok {
			continue
		}
		hasRIPs := p.Fabric.Switch(home).NumRIPsOf(vip) > 0
		if !hasRIPs && ws[i] != 0 {
			p.DNS.SetWeight(app, vip, 0)
		} else if hasRIPs && ws[i] == 0 {
			p.DNS.SetWeight(app, vip, 1)
		}
	}
}

// RemoveInstance tears down one VM instance: RIP deconfigured from the
// fabric, address freed, VM removed.
func (p *Platform) RemoveInstance(vm cluster.VMID) error {
	v := p.Cluster.VM(vm)
	if v == nil {
		return fmt.Errorf("core: unknown vm %d", vm)
	}
	if rip, ok := p.RIPForVM(vm); ok {
		if err := p.VIPRIP.DelRIP(v.App, rip); err != nil {
			return err
		}
		p.VIPRIP.FreeRIP(rip)
		p.vmRIP[vm] = 0
		p.vmHome[vm] = ids.None
	}
	if err := p.Cluster.RemoveVM(vm); err != nil {
		return err
	}
	p.reconcileExposure(v.App)
	return nil
}

// noServer, passed as emptiestServer's exclude, excludes nothing.
const noServer = cluster.ServerID(-1)

// emptiestServer returns the serving server in pod, other than exclude,
// with the most free CPU that can fit slice, or nil.
func (p *Platform) emptiestServer(pod cluster.PodID, exclude cluster.ServerID, slice cluster.Resources) *cluster.Server {
	pd := p.Cluster.Pod(pod)
	if pd == nil {
		return nil
	}
	var best *cluster.Server
	for _, s := range pd.Servers() {
		if s.ID == exclude || !s.Serving() || !s.Used().Add(slice).Fits(s.Capacity) {
			continue
		}
		if best == nil || s.Free().CPU > best.Free().CPU {
			best = s
		}
	}
	return best
}

// SetAppDemand sets an application's offered demand and repropagates.
func (p *Platform) SetAppDemand(app cluster.AppID, d Demand) {
	if d.CPU <= 0 && d.Mbps <= 0 {
		p.demandApps.Clear(int(app)) // the slot value is stale; the bit rules
	} else {
		p.appDemand = growSlice(p.appDemand, int(app)+1)
		p.appDemand[app] = d
		p.demandApps.Set(int(app))
	}
	p.markDemandDirty(app)
	p.Propagate()
}

// AppDemand returns the current offered demand of app.
func (p *Platform) AppDemand(app cluster.AppID) Demand { return p.appDemandOf(app) }

// SessionOpened records a discrete session's demand: res pinned to the
// VM it connected to (TCP affinity) and its bandwidth on the VIP (by
// fabric handle) it arrived through. Every write below re-evaluates the
// same canonical ledger+session expression Propagate uses, so session
// churn leaves the platform in exactly the state a full recompute would
// build and needs no dirty marking.
func (p *Platform) SessionOpened(vi ids.Index, vm cluster.VMID, res cluster.Resources) {
	vmi := ids.Index(vm)
	p.sessVIP = growSlice(p.sessVIP, int(vi)+1)
	p.sessVIP[vi] += res.NetMbps
	p.sessVM = growSlice(p.sessVM, int(vmi)+1)
	p.sessVM[vmi] = p.sessVM[vmi].Add(res)
	p.writeSessionSums(vi, vm)
	p.markVIPActive(vi)
}

// SessionClosed reverses SessionOpened when the session ends, writing
// the same canonical ledger+session sums.
func (p *Platform) SessionClosed(vi ids.Index, vm cluster.VMID, res cluster.Resources) {
	vmi := ids.Index(vm)
	p.sessVIP = growSlice(p.sessVIP, int(vi)+1)
	if p.sessVIP[vi] -= res.NetMbps; p.sessVIP[vi] <= 1e-12 {
		p.sessVIP[vi] = 0
	}
	p.sessVM = growSlice(p.sessVM, int(vmi)+1)
	if left := p.sessVM[vmi].Sub(res); left.IsZero() || !left.NonNegative() {
		p.sessVM[vmi] = cluster.Resources{}
	} else {
		p.sessVM[vmi] = left
	}
	p.writeSessionSums(vi, vm)
}

// writeSessionSums rewrites the VM's demand and the VIP's traffic and
// switch load as ledger+session sums after a session update.
func (p *Platform) writeSessionSums(vi ids.Index, vm cluster.VMID) {
	if v := p.Cluster.VM(vm); v != nil {
		v.Demand = p.sessVM[vm].Add(p.appliedVMDemand(v))
	}
	traffic, swLoad := p.appliedVIPLoad(vi)
	p.Net.SetVIPTraffic(vi, traffic+p.sessVIP[vi])
	p.Fabric.SetLoad(vi, swLoad+p.sessVIP[vi])
}

// DriveDemand schedules periodic demand updates for app following the
// profile: demand(t) = perUnit × profile.RateAt(t), re-evaluated every
// interval seconds until stopAt (0 = forever).
func (p *Platform) DriveDemand(app cluster.AppID, profile workload.Profile, perUnit Demand, interval, stopAt float64) {
	p.Eng.Every(0, interval, func() bool {
		p.SetAppDemand(app, perUnit.Scale(profile.RateAt(p.Eng.Now())))
		return stopAt <= 0 || p.Eng.Now() < stopAt
	})
}

// Start launches the pod and global control loops on the engine.
func (p *Platform) Start() {
	for _, pm := range p.pods {
		pm := pm
		p.Eng.Every(p.Cfg.PodControlInterval, p.Cfg.PodControlInterval, func() bool {
			pm.Step()
			return true
		})
	}
	p.Eng.Every(p.Cfg.GlobalControlInterval, p.Cfg.GlobalControlInterval, func() bool {
		p.Global.Step()
		return true
	})
	// Stale-snapshot regime: each pod manager periodically casts its
	// utilization to the global manager (best-effort, no retries — the
	// next cast supersedes a lost one), and global inter-pod decisions
	// read the last-received snapshot instead of live state.
	if p.ctrl.Enabled() && p.Cfg.Ctrl.SnapshotEvery > 0 {
		for _, id := range p.podOrder {
			id := id
			pm := p.Pod(id)
			p.Eng.Every(0, p.Cfg.Ctrl.SnapshotEvery, func() bool {
				util := pm.Utilization()
				p.ctrl.Cast(ctrlplane.Pod(int(id)), ctrlplane.Global, "util-snapshot", func() {
					p.Global.podSnap[id] = util
				})
				return true
			})
		}
	}
	// The time-series sampler is engine-scheduled so an untraced run
	// carries no sampling branch anywhere near the Propagate hot path.
	if p.Cfg.Trace != nil && p.Cfg.Trace.TS != nil {
		iv := p.Cfg.TraceSampleEvery
		if iv <= 0 {
			iv = p.Cfg.PodControlInterval
		}
		p.Eng.Every(0, iv, func() bool {
			p.TraceSample()
			return true
		})
	}
}

// appServedDemand returns (served CPU, demanded CPU) for app. Demand is
// the larger of the fluid app demand (which counts demand dropped by
// unexposed VIPs as unserved) and the summed VM demand (which counts
// session-overlay demand the fluid model does not know about).
func (p *Platform) appServedDemand(app cluster.AppID) (served, demand float64) {
	a := p.Cluster.App(app)
	if a == nil {
		return 0, p.appDemandOf(app).CPU
	}
	var vmDemand float64
	for _, vmID := range a.VMIDsView() {
		vm := p.Cluster.VM(vmID)
		vmDemand += vm.Demand.CPU
		if srv := p.Cluster.Server(vm.Server); srv != nil && !srv.Serving() {
			continue // black-holed: a failed server's VMs serve nothing
		}
		served += vm.Served().CPU
	}
	demand = p.appDemandOf(app).CPU
	if vmDemand > demand {
		demand = vmDemand
	}
	if served > demand {
		served = demand
	}
	return served, demand
}

// AppServedDemand returns (served CPU, demanded CPU) for app — the raw
// quantities behind AppSatisfaction, exported so availability monitors
// can integrate unserved demand over time.
func (p *Platform) AppServedDemand(app cluster.AppID) (served, demand float64) {
	return p.appServedDemand(app)
}

// vipReachability returns the fraction of a VIP's advertised routes
// that terminate on serving links. Every VIP is advertised at
// onboarding, so zero active routes means the VIP was withdrawn (or its
// routes all died): unreachable until re-advertised.
func (p *Platform) vipReachability(vi ids.Index) float64 {
	active, serving := p.Net.RouteCounts(vi)
	if active == 0 {
		return 0
	}
	return float64(serving) / float64(active)
}

// AppSatisfaction returns served/demanded CPU for app (1 when it has no
// demand).
func (p *Platform) AppSatisfaction(app cluster.AppID) float64 {
	served, demand := p.appServedDemand(app)
	if demand <= 0 {
		return 1
	}
	return served / demand
}

// TotalSatisfaction returns served/demanded CPU across all applications.
func (p *Platform) TotalSatisfaction() float64 {
	var demand, served float64
	for id := 0; id < p.Cluster.NumApps(); id++ {
		app := cluster.AppID(id)
		if p.Cluster.App(app) == nil {
			continue
		}
		s, d := p.appServedDemand(app)
		served += s
		demand += d
	}
	// Fluid demand of apps that no longer exist in the cluster still
	// counts as unserved. Bitset iteration is ascending by app ID, so
	// the float sum order is deterministic.
	p.satScratch = p.demandApps.AppendMembers(p.satScratch[:0])
	for _, ai := range p.satScratch {
		app := cluster.AppID(ai)
		if p.Cluster.App(app) == nil {
			demand += p.appDemand[app].CPU
		}
	}
	if demand == 0 {
		return 1
	}
	return served / demand
}

// CheckInvariants validates the cluster, fabric and network tables on
// their own. It is a subset of Audit (I3.CLUSTER, I1.FABRIC,
// I5.LINK_DECOMP), kept for the benchmark harness; every other caller
// gates on AuditErr, which also checks the cross-layer invariants.
func (p *Platform) CheckInvariants() error {
	if err := p.Cluster.CheckInvariants(); err != nil {
		return err
	}
	if err := p.Fabric.CheckInvariants(); err != nil {
		return err
	}
	return p.Net.CheckInvariants()
}
