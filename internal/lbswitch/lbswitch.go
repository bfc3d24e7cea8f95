// Package lbswitch models the layer-4 load-balancing switches of the
// paper's load-balancing layer. A switch owns a set of VIPs (virtual IP
// addresses visible to clients); each VIP maps to a weighted group of RIPs
// (real IPs of the application's VM instances). Switches have the hard
// limits the paper takes from the Cisco Catalyst CSM datasheet: 4,000
// VIPs, 16,000 RIPs, 4 Gbps layer-4 throughput, 1M concurrent TCP
// connections, and 1.25M packets per second. All limits are enforced; the
// VIP/RIP manager above must respect them.
//
// A VIP's RIP group is one flat value slice in insertion order, with no
// index beside it: at the paper's parameters a group holds about seven
// RIPs, so operations on one RIP find it by a scan (DESIGN.md §22).
// Addresses are IPv4 values (ipv4.Addr), so the scan compares integers
// and a group holds no pointer.
//
// Traffic is modeled two ways, matching the two granularities the
// experiments need: a fluid per-VIP offered load in Mbps (for
// fabric-utilization and balancing experiments) and discrete tracked
// connections with RIP affinity (for the VIP-transfer drain experiments,
// where "packets of the same TCP session must arrive to the same RIP").
package lbswitch

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"megadc/internal/cluster"
	"megadc/internal/health"
	"megadc/internal/ids"
	"megadc/internal/ipv4"
)

// VIP is a virtual IP address (externally routable).
type VIP = ipv4.Addr

// RIP is a real IP address of one VM instance (private, e.g. from 10/8).
type RIP = ipv4.Addr

// SwitchID identifies one LB switch.
type SwitchID int

// ConnID identifies one tracked client connection.
type ConnID int64

// Limits are the hard capacities of one LB switch.
type Limits struct {
	MaxVIPs        int     // max configured VIPs
	MaxRIPs        int     // max configured RIPs (total across VIPs)
	ThroughputMbps float64 // layer-4 switching capacity
	MaxConns       int     // max concurrent TCP connections
	MaxPPS         float64 // max packets per second
}

// CatalystCSM returns the limits the paper assumes throughout: the Cisco
// Catalyst 6500 content switching module parameters (Section II).
func CatalystCSM() Limits {
	return Limits{
		MaxVIPs:        4000,
		MaxRIPs:        16000,
		ThroughputMbps: 4000, // 4 Gbps
		MaxConns:       1_000_000,
		MaxPPS:         1_250_000,
	}
}

// Scaled returns the limits divided by k, used by laptop-scale experiment
// configurations that shrink the data center and the switches together so
// that the packing ratios the paper reasons about are preserved.
func (l Limits) Scaled(k int) Limits {
	if k <= 0 {
		panic("lbswitch: scale factor must be positive")
	}
	return Limits{
		MaxVIPs:        l.MaxVIPs / k,
		MaxRIPs:        l.MaxRIPs / k,
		ThroughputMbps: l.ThroughputMbps / float64(k),
		MaxConns:       l.MaxConns / k,
		MaxPPS:         l.MaxPPS / float64(k),
	}
}

// Errors returned by switch operations.
var (
	ErrVIPLimit    = errors.New("lbswitch: VIP limit reached")
	ErrRIPLimit    = errors.New("lbswitch: RIP limit reached")
	ErrConnLimit   = errors.New("lbswitch: connection limit reached")
	ErrNoSuchVIP   = errors.New("lbswitch: no such VIP")
	ErrNoSuchRIP   = errors.New("lbswitch: no such RIP")
	ErrDupVIP      = errors.New("lbswitch: VIP already configured")
	ErrDupRIP      = errors.New("lbswitch: RIP already in group")
	ErrActiveConns = errors.New("lbswitch: VIP has active connections")
	ErrNoRIPs      = errors.New("lbswitch: VIP has no RIPs configured")
	ErrBadWeight   = errors.New("lbswitch: weight must be positive and finite")
)

// validWeight rejects non-positive and non-finite weights. NaN fails
// every ordered comparison, so a bare `weight <= 0` check would let NaN
// through into weight sums and poison every share computed from them.
func validWeight(w float64) bool {
	return w > 0 && !math.IsInf(w, 0) && !math.IsNaN(w)
}

// ripEntry is one RIP of a group: 16 bytes, so a 20-RIP group spans
// five cache lines (TestAddressesArePointerFree). The entry holds
// configuration only; a RIP's connection count, which only tracked
// sessions need, is counted from the switch's connection table.
type ripEntry struct {
	rip RIP
	// tag is an opaque caller-attached value (-1 when unset). The
	// platform stores the dense VM index of the instance behind the RIP
	// so demand propagation can fan out to flat tables without a string
	// lookup per RIP. Tags are simulator bookkeeping, not switch
	// configuration; a tag is set only by the insert (AddRIPTagged).
	tag    int32
	weight float64
}

type vipEntry struct {
	h        ids.Index // the VIP's handle in its address table
	sw       *Switch   // the switch the VIP is configured on
	app      cluster.AppID
	rips     []ripEntry // the RIP group, in insertion order for determinism
	conns    int
	loadMbps float64 // fluid offered load
	// seq is the VIP's insertion sequence on this switch. Switch.vips
	// is append-only and removals keep the survivors' order, so
	// ascending seq is exactly insertion order.
	seq uint64
}

// find returns the index of rip in e's group, or -1.
func (e *vipEntry) find(rip RIP) int {
	for i := range e.rips {
		if e.rips[i].rip == rip {
			return i
		}
	}
	return -1
}

type conn struct {
	h   ids.Index
	rip RIP
}

// vipTable is the VIP address book a fabric shares with its switches
// (DESIGN.md §22): the one address → handle map, and per handle the
// address and a slot holding the VIP's entry on the switch it is
// configured on and that switch's ID. A handle is a dense int32
// assigned the first time an address is placed and never reused, so
// per-VIP state elsewhere can live in slices indexed by it. Handles are
// assigned only by AddVIP, which runs in sequential code; everything
// else only reads the table.
type vipTable struct {
	ix    map[VIP]ids.Index
	addrs []VIP
	slot  []vipSlot
	live  int // slots with a non-nil entry
}

// vipSlot is one handle's row of the table. The home column lets
// Fabric.Home answer with one load instead of chasing entry → switch →
// ID, which misses the cache at 10K switches; it shares the row with
// the entry pointer because Propagate reads both for every VIP.
type vipSlot struct {
	e    *vipEntry // nil while the VIP is on no switch
	home SwitchID  // e.sw.ID, or noSwitch while e is nil
}

// noSwitch is the home of a handle whose VIP is on no switch.
const noSwitch SwitchID = -1

func newVIPTable() *vipTable { return &vipTable{ix: make(map[VIP]ids.Index)} }

// intern returns vip's handle, assigning the next one on first sight.
func (t *vipTable) intern(vip VIP) ids.Index {
	if h, ok := t.ix[vip]; ok {
		return h
	}
	h := ids.Index(len(t.addrs))
	t.ix[vip] = h
	t.addrs = append(t.addrs, vip)
	t.slot = append(t.slot, vipSlot{home: noSwitch})
	return h
}

// at returns the configured entry of handle h, or nil.
func (t *vipTable) at(h ids.Index) *vipEntry {
	if h < 0 || int(h) >= len(t.slot) {
		return nil
	}
	return t.slot[h].e
}

// lookup returns vip's configured entry, or nil.
func (t *vipTable) lookup(vip VIP) *vipEntry {
	if h, ok := t.ix[vip]; ok {
		return t.slot[h].e
	}
	return nil
}

// Switch is one L4 load-balancing switch.
//
// Health and Req, which every request arrival and completion reads or
// writes, lead the struct and share its first cache line; the struct is
// padded to a whole number of lines, so the allocator's size class for
// it starts every switch on a line boundary (TestRequestPathLayout).
type Switch struct {
	// Health tracks the failure/repair lifecycle; non-serving switches
	// black-hole the traffic of every VIP still homed on them.
	Health health.State

	// Req accumulates request-queue telemetry when a request engine is
	// attached (see reqstats.go). Zero-valued and untouched otherwise.
	Req ReqStats

	ID        SwitchID
	totalRIPs int
	Limits    Limits

	tab      *vipTable   // shared with the fabric; private to a lone switch
	vips     []*vipEntry // configured VIPs in insertion order
	nextSeq  uint64
	conns    map[ConnID]conn
	nextConn ConnID

	// Cached canonical throughput: the sum of per-VIP fluid loads in
	// insertion order, recomputed lazily after a load or membership
	// change. The fixed summation order keeps ThroughputMbps independent
	// of update history, which incremental demand propagation relies on
	// for bit-exact results.
	loadSum  float64
	sumValid bool

	// backendGen moves whenever the switch's backend set changes: a VIP
	// or RIP (with its tag, the VM it resolves to) is added or removed.
	// Weight and load changes leave it alone. Callers
	// memoize per-switch derivations of the backend set behind it.
	backendGen uint64

	// weightGen moves on every RIP weight change (SetWeight). Together
	// with backendGen it keys any derivation of the switch's weighted
	// groups: a key that holds both has seen every configuration change.
	weightGen uint64

	// Reconfigs counts programmatic reconfiguration operations applied to
	// the switch (VIP/RIP add/remove, weight changes). The paper notes
	// these take "only several seconds"; the latency itself is applied by
	// the managers, but the count is an experiment output.
	Reconfigs int64

	// OnReconfig, when set, is called after every configuration change
	// that can shift how the VIP's demand lands (VIP/RIP add/remove,
	// weight change), with the affected VIP's handle and its owning
	// application. The platform uses it to mark the application dirty
	// for incremental demand propagation.
	OnReconfig func(h ids.Index, app cluster.AppID)

	_ [48]byte // pads the struct from 208 to 256 bytes, four lines
}

// Serving reports whether the switch is healthy enough to forward
// traffic and accept VIP placements.
func (s *Switch) Serving() bool { return s.Health.Serving() }

// BackendGen returns the switch's backend generation: it changes on
// every VIP/RIP membership change, and on nothing else (not on weight,
// load, connection or health changes).
func (s *Switch) BackendGen() uint64 { return s.backendGen }

// WeightGen returns the switch's weight generation: it changes on every
// RIP weight change and on nothing else. A group's weights can change
// only through SetWeight or a membership change, so (BackendGen,
// WeightGen) unchanged means every group on the switch is unchanged.
func (s *Switch) WeightGen() uint64 { return s.weightGen }

// NewSwitch returns a switch with the given limits and its own VIP
// address table. Switches of a fabric share the fabric's table instead
// (Fabric.AddSwitch).
func NewSwitch(id SwitchID, limits Limits) *Switch {
	return newSwitch(id, limits, newVIPTable())
}

func newSwitch(id SwitchID, limits Limits, tab *vipTable) *Switch {
	return &Switch{
		ID:     id,
		Limits: limits,
		tab:    tab,
		conns:  make(map[ConnID]conn),
	}
}

// entry returns vip's entry when vip is configured on this switch.
func (s *Switch) entry(vip VIP) *vipEntry {
	if e := s.tab.lookup(vip); e != nil && e.sw == s {
		return e
	}
	return nil
}

// noVIP is the error for an address not configured on the switch.
func (s *Switch) noVIP(vip VIP) error {
	return fmt.Errorf("%w: %s on switch %d", ErrNoSuchVIP, vip, s.ID)
}

// NumVIPs returns the number of configured VIPs.
func (s *Switch) NumVIPs() int { return len(s.vips) }

// NumRIPs returns the total number of configured RIPs across all VIPs.
func (s *Switch) NumRIPs() int { return s.totalRIPs }

// NumConns returns the number of tracked active connections.
func (s *Switch) NumConns() int { return len(s.conns) }

// HasVIP reports whether vip is configured on the switch.
func (s *Switch) HasVIP(vip VIP) bool { return s.entry(vip) != nil }

// AppOf returns the application a configured VIP belongs to.
func (s *Switch) AppOf(vip VIP) (cluster.AppID, bool) {
	e := s.entry(vip)
	if e == nil {
		return 0, false
	}
	return e.app, true
}

// VIPs returns the configured VIPs in insertion order.
func (s *Switch) VIPs() []VIP {
	out := make([]VIP, len(s.vips))
	for i, e := range s.vips {
		out[i] = s.tab.addrs[e.h]
	}
	return out
}

// HandleAt returns the handle of the i-th configured VIP in insertion
// order, i in [0, NumVIPs). Allocation-free scans over a switch's VIPs
// (the platform's backend capacity scan) index with it.
func (s *Switch) HandleAt(i int) ids.Index { return s.vips[i].h }

// Group is a read-only view of one VIP's RIP group on a switch, for
// allocation-free scans that walk a switch's groups by entry instead of
// looking each address up again. It is valid until the next change to
// the switch's configuration.
type Group struct{ e *vipEntry }

// GroupAt returns the group of the i-th configured VIP in insertion
// order, i in [0, NumVIPs).
func (s *Switch) GroupAt(i int) Group { return Group{s.vips[i]} }

// VIP returns the group's VIP address.
func (g Group) VIP() VIP { return g.e.sw.tab.addrs[g.e.h] }

// App returns the application owning the group's VIP.
func (g Group) App() cluster.AppID { return g.e.app }

// Len returns the number of RIPs in the group.
func (g Group) Len() int { return len(g.e.rips) }

// Tag returns the j-th RIP's tag (-1 when unset), in insertion order.
func (g Group) Tag(j int) int32 { return g.e.rips[j].tag }

// Weight returns the j-th RIP's weight, in insertion order.
func (g Group) Weight(j int) float64 { return g.e.rips[j].weight }

// AppendWeights appends the group's weights in insertion order.
func (g Group) AppendWeights(w []float64) []float64 {
	for _, re := range g.e.rips {
		w = append(w, re.weight)
	}
	return w
}

// VIPSeq returns vip's insertion sequence on the switch: VIPs in
// ascending VIPSeq are in VIPs order, so a caller holding a subset of
// the switch's VIPs can sort it into scan order without the scan.
func (s *Switch) VIPSeq(vip VIP) (uint64, bool) {
	e := s.entry(vip)
	if e == nil {
		return 0, false
	}
	return e.seq, true
}

// AddVIP configures a new VIP owned by app. A VIP is configured on at
// most one switch of a fabric at a time.
func (s *Switch) AddVIP(vip VIP, app cluster.AppID) error {
	if e := s.tab.lookup(vip); e != nil {
		return fmt.Errorf("%w: %s on switch %d", ErrDupVIP, vip, e.sw.ID)
	}
	if len(s.vips) >= s.Limits.MaxVIPs {
		return fmt.Errorf("%w: switch %d at %d", ErrVIPLimit, s.ID, s.Limits.MaxVIPs)
	}
	h := s.tab.intern(vip)
	e := &vipEntry{h: h, sw: s, app: app, seq: s.nextSeq}
	s.tab.slot[h] = vipSlot{e: e, home: s.ID}
	s.tab.live++
	s.nextSeq++
	s.vips = append(s.vips, e)
	s.sumValid = false
	s.backendGen++
	s.Reconfigs++
	if s.OnReconfig != nil {
		s.OnReconfig(h, app)
	}
	return nil
}

// RemoveVIP deletes a VIP and its RIP group. It fails with ErrActiveConns
// if connections are still using the VIP, unless force is set, in which
// case the connections are broken and their count returned.
func (s *Switch) RemoveVIP(vip VIP, force bool) (broken int, err error) {
	e := s.entry(vip)
	if e == nil {
		return 0, s.noVIP(vip)
	}
	if e.conns > 0 && !force {
		return 0, fmt.Errorf("%w: %s has %d", ErrActiveConns, vip, e.conns)
	}
	broken = e.conns
	if broken > 0 {
		for id, c := range s.conns {
			if c.h == e.h {
				delete(s.conns, id)
			}
		}
	}
	s.totalRIPs -= len(e.rips)
	i, _ := slices.BinarySearchFunc(s.vips, e.seq, func(x *vipEntry, seq uint64) int { return cmp.Compare(x.seq, seq) })
	s.vips = slices.Delete(s.vips, i, i+1)
	s.tab.slot[e.h] = vipSlot{home: noSwitch}
	s.tab.live--
	s.sumValid = false
	s.backendGen++
	s.Reconfigs++
	if s.OnReconfig != nil {
		s.OnReconfig(e.h, e.app)
	}
	return broken, nil
}

// AddRIP adds a RIP with the given positive weight to vip's group.
func (s *Switch) AddRIP(vip VIP, rip RIP, weight float64) error {
	return s.AddRIPTagged(vip, rip, weight, -1)
}

// AddRIPTagged is AddRIP with the RIP's tag (see ripEntry) set in the
// insert itself, so a caller that knows the instance behind the RIP
// pays one VIP lookup and one group scan. A tag is written only here:
// it names the instance behind the RIP for the entry's lifetime.
func (s *Switch) AddRIPTagged(vip VIP, rip RIP, weight float64, tag int32) error {
	e := s.entry(vip)
	if e == nil {
		return s.noVIP(vip)
	}
	if !validWeight(weight) {
		return fmt.Errorf("%w: %v", ErrBadWeight, weight)
	}
	if e.find(rip) >= 0 {
		return fmt.Errorf("%w: %s in %s", ErrDupRIP, rip, vip)
	}
	if s.totalRIPs >= s.Limits.MaxRIPs {
		return fmt.Errorf("%w: switch %d at %d", ErrRIPLimit, s.ID, s.Limits.MaxRIPs)
	}
	e.rips = append(e.rips, ripEntry{rip: rip, weight: weight, tag: tag})
	s.totalRIPs++
	s.backendGen++
	s.Reconfigs++
	if s.OnReconfig != nil {
		s.OnReconfig(e.h, e.app)
	}
	return nil
}

// AddRIPRange adds n RIPs to vip's group in one insert: for i in
// [0, n), RIP first+i·stride tagged tag+i·stride, each with the given
// weight. The group ends exactly as n AddRIPTagged calls in that order
// would leave it, with the same reconfiguration count, backend
// generation and OnReconfig calls (one per RIP), but the VIP is looked
// up once and the group grows once. The insert is all or nothing: a
// RIP already in the group, a tag past the 32-bit range or a RIP past
// the switch's RIP limit fails it before anything is added.
func (s *Switch) AddRIPRange(vip VIP, first RIP, tag int32, stride, n int, weight float64) error {
	e := s.entry(vip)
	if e == nil {
		return s.noVIP(vip)
	}
	if !validWeight(weight) {
		return fmt.Errorf("%w: %v", ErrBadWeight, weight)
	}
	if n <= 0 {
		return nil
	}
	// Distinct addresses need a positive stride that does not wrap the
	// 32-bit address space within the range.
	if stride <= 0 || uint64(n-1)*uint64(stride) > math.MaxUint32 {
		return fmt.Errorf("%w: %d RIPs from %s by %d in %s", ErrDupRIP, n, first, stride, vip)
	}
	if int64(tag)+int64(n-1)*int64(stride) > math.MaxInt32 {
		return fmt.Errorf("lbswitch: tags from %d by %d overflow 32 bits in %s", tag, stride, vip)
	}
	for i := 0; i < n; i++ {
		if rip := first + RIP(i*stride); e.find(rip) >= 0 {
			return fmt.Errorf("%w: %s in %s", ErrDupRIP, rip, vip)
		}
	}
	if s.totalRIPs+n > s.Limits.MaxRIPs {
		return fmt.Errorf("%w: switch %d at %d", ErrRIPLimit, s.ID, s.Limits.MaxRIPs)
	}
	if cap(e.rips)-len(e.rips) < n {
		e.rips = append(make([]ripEntry, 0, len(e.rips)+n), e.rips...)
	}
	for i := 0; i < n; i++ {
		off := i * stride
		e.rips = append(e.rips, ripEntry{rip: first + RIP(off), weight: weight, tag: tag + int32(off)})
	}
	s.totalRIPs += n
	s.backendGen += uint64(n)
	s.Reconfigs += int64(n)
	if s.OnReconfig != nil {
		for i := 0; i < n; i++ {
			s.OnReconfig(e.h, e.app)
		}
	}
	return nil
}

// RemoveRIP removes a RIP from vip's group. Connections bound to the RIP
// are broken (a real switch would drop them); the count is returned. A
// RIP not in the group returns ErrNoSuchRIP itself, unwrapped, so a
// caller probing several VIPs for the RIP pays no allocation per miss.
func (s *Switch) RemoveRIP(vip VIP, rip RIP) (broken int, err error) {
	e := s.entry(vip)
	if e == nil {
		return 0, s.noVIP(vip)
	}
	i := e.find(rip)
	if i < 0 {
		return 0, ErrNoSuchRIP
	}
	// Only a VIP with connections can have some on this RIP, so a
	// sessionless workload never scans the connection table.
	if e.conns > 0 {
		key := conn{e.h, rip}
		for id, c := range s.conns {
			if c == key {
				delete(s.conns, id)
				broken++
			}
		}
		e.conns -= broken
	}
	e.rips = slices.Delete(e.rips, i, i+1)
	s.totalRIPs--
	s.backendGen++
	s.Reconfigs++
	if s.OnReconfig != nil {
		s.OnReconfig(e.h, e.app)
	}
	return broken, nil
}

// SetWeight programmatically changes a RIP's load-balancing weight
// (paper knob F, Section IV-F).
func (s *Switch) SetWeight(vip VIP, rip RIP, weight float64) error {
	e := s.entry(vip)
	if e == nil {
		return s.noVIP(vip)
	}
	i := e.find(rip)
	if i < 0 {
		return fmt.Errorf("%w: %s in %s", ErrNoSuchRIP, rip, vip)
	}
	if !validWeight(weight) {
		return fmt.Errorf("%w: %v", ErrBadWeight, weight)
	}
	e.rips[i].weight = weight
	s.weightGen++
	s.Reconfigs++
	if s.OnReconfig != nil {
		s.OnReconfig(e.h, e.app)
	}
	return nil
}

// Weights returns the RIPs and weights of vip's group in insertion order.
func (s *Switch) Weights(vip VIP) (rips []RIP, weights []float64, err error) {
	e := s.entry(vip)
	if e == nil {
		return nil, nil, s.noVIP(vip)
	}
	for _, re := range e.rips {
		rips = append(rips, re.rip)
		weights = append(weights, re.weight)
	}
	return rips, weights, nil
}

// AppendWeightsTagged is Weights with each RIP's tag (-1 when unset),
// appended to caller-provided buffers so hot paths can reuse scratch
// space instead of allocating both vectors per call.
func (s *Switch) AppendWeightsTagged(vip VIP, rips []RIP, tags []int32, weights []float64) ([]RIP, []int32, []float64, error) {
	e := s.entry(vip)
	if e == nil {
		return rips, tags, weights, s.noVIP(vip)
	}
	for _, re := range e.rips {
		rips = append(rips, re.rip)
		tags = append(tags, re.tag)
		weights = append(weights, re.weight)
	}
	return rips, tags, weights, nil
}

// NumRIPsOf returns the size of vip's RIP group (0 when vip is not
// configured on the switch).
func (s *Switch) NumRIPsOf(vip VIP) int {
	if e := s.entry(vip); e != nil {
		return len(e.rips)
	}
	return 0
}

// PickRIP performs one weighted load-balancing decision for vip.
func (s *Switch) PickRIP(vip VIP, rng *rand.Rand) (RIP, error) {
	e := s.entry(vip)
	if e == nil {
		return 0, s.noVIP(vip)
	}
	i, err := pickWeighted(e.rips, rng)
	if err != nil {
		return 0, fmt.Errorf("%s: %w", vip, err)
	}
	return e.rips[i].rip, nil
}

// pickWeighted returns the index of one weighted choice among rips.
func pickWeighted(rips []ripEntry, rng *rand.Rand) (int, error) {
	if len(rips) == 0 {
		return -1, ErrNoRIPs
	}
	var total float64
	for i := range rips {
		total += rips[i].weight
	}
	x := rng.Float64() * total
	for i := range rips {
		x -= rips[i].weight
		if x < 0 {
			return i, nil
		}
	}
	return len(rips) - 1, nil
}

// OpenConn admits a new client connection to vip, binding it to a RIP
// chosen by weighted balancing, and returns the RIP with its entry's tag
// (-1 when unset). The binding is sticky: the connection stays on that
// RIP for its lifetime (TCP session affinity).
func (s *Switch) OpenConn(vip VIP, rng *rand.Rand) (id ConnID, rip RIP, tag int32, err error) {
	e := s.entry(vip)
	if e == nil {
		return 0, 0, -1, s.noVIP(vip)
	}
	if len(s.conns) >= s.Limits.MaxConns {
		return 0, 0, -1, fmt.Errorf("%w: switch %d at %d", ErrConnLimit, s.ID, s.Limits.MaxConns)
	}
	i, err := pickWeighted(e.rips, rng)
	if err != nil {
		return 0, 0, -1, fmt.Errorf("%s: %w", vip, err)
	}
	re := &e.rips[i]
	id = s.nextConn
	s.nextConn++
	s.conns[id] = conn{h: e.h, rip: re.rip}
	e.conns++
	return id, re.rip, re.tag, nil
}

// CloseConn ends a tracked connection. Closing an unknown connection
// (e.g. already broken by a forced reconfiguration) is a no-op and
// reports false.
func (s *Switch) CloseConn(id ConnID) bool {
	c, ok := s.conns[id]
	if !ok {
		return false
	}
	delete(s.conns, id)
	if e := s.tab.at(c.h); e != nil && e.sw == s {
		e.conns--
	}
	return true
}

// VIPConns returns the number of active connections on vip.
func (s *Switch) VIPConns(vip VIP) int {
	if e := s.entry(vip); e != nil {
		return e.conns
	}
	return 0
}

// RIPConns returns per-RIP active connection counts for vip, in the RIP
// group's insertion order. The counts come from one scan of the
// switch's connection table, skipped when vip has none.
func (s *Switch) RIPConns(vip VIP) (rips []RIP, counts []int) {
	e := s.entry(vip)
	if e == nil {
		return nil, nil
	}
	for _, re := range e.rips {
		rips = append(rips, re.rip)
	}
	counts = make([]int, len(rips))
	if e.conns > 0 {
		for _, c := range s.conns {
			if c.h == e.h {
				counts[e.find(c.rip)]++
			}
		}
	}
	return rips, counts
}

// SetVIPLoad sets the fluid offered load on vip in Mbps. The fluid model
// and the connection model coexist; experiments use whichever granularity
// they need.
func (s *Switch) SetVIPLoad(vip VIP, mbps float64) error {
	e := s.entry(vip)
	if e == nil {
		return s.noVIP(vip)
	}
	return e.setLoad(mbps)
}

func (e *vipEntry) setLoad(mbps float64) error {
	if mbps < 0 {
		return fmt.Errorf("lbswitch: negative load %v", mbps)
	}
	e.loadMbps = mbps
	e.sw.sumValid = false
	return nil
}

// VIPLoad returns the fluid offered load on vip in Mbps.
func (s *Switch) VIPLoad(vip VIP) float64 {
	if e := s.entry(vip); e != nil {
		return e.loadMbps
	}
	return 0
}

// ThroughputMbps returns the switch's total fluid offered load: the sum
// of per-VIP loads in VIP insertion order (cached until a load changes),
// so the value is reproducible rather than map-iteration dependent.
func (s *Switch) ThroughputMbps() float64 {
	if !s.sumValid {
		var sum float64
		for _, e := range s.vips {
			sum += e.loadMbps
		}
		s.loadSum = sum
		s.sumValid = true
	}
	return s.loadSum
}

// Utilization returns offered load over throughput capacity. Values above
// 1 mean the switch is saturated and would drop/queue traffic.
func (s *Switch) Utilization() float64 {
	if s.Limits.ThroughputMbps <= 0 {
		return 0
	}
	return s.ThroughputMbps() / s.Limits.ThroughputMbps
}

// PacketsPerMbps converts the fluid Mbps model to packets per second
// assuming ~500-byte average packets (1 Mbps ≈ 250 pps). At this rate
// the Catalyst CSM's 4 Gbps equals 1M pps, inside its 1.25M pps limit —
// consistent with the datasheet the paper cites.
const PacketsPerMbps = 250.0

// PPS returns the switch's offered packet rate under the fluid model.
func (s *Switch) PPS() float64 { return s.ThroughputMbps() * PacketsPerMbps }

// PPSUtilization returns offered packet rate over the MaxPPS limit.
func (s *Switch) PPSUtilization() float64 {
	if s.Limits.MaxPPS <= 0 {
		return 0
	}
	return s.PPS() / s.Limits.MaxPPS
}

// BottleneckUtilization returns the binding constraint: the larger of
// throughput utilization and pps utilization.
func (s *Switch) BottleneckUtilization() float64 {
	u := s.Utilization()
	if p := s.PPSUtilization(); p > u {
		u = p
	}
	return u
}

// VIPLoadShare distributes vip's fluid load over its RIPs according to
// weights, returning parallel slices. This is the fluid-model equivalent
// of weighted connection balancing.
func (s *Switch) VIPLoadShare(vip VIP) (rips []RIP, mbps []float64, err error) {
	e := s.entry(vip)
	if e == nil {
		return nil, nil, s.noVIP(vip)
	}
	var total float64
	for _, re := range e.rips {
		total += re.weight
	}
	for _, re := range e.rips {
		rips = append(rips, re.rip)
		share := 0.0
		if total > 0 {
			share = e.loadMbps * re.weight / total
		}
		mbps = append(mbps, share)
	}
	return rips, mbps, nil
}

// CheckInvariants validates internal consistency and limit compliance.
func (s *Switch) CheckInvariants() error {
	if len(s.vips) > s.Limits.MaxVIPs {
		return fmt.Errorf("switch %d: %d VIPs > limit %d", s.ID, len(s.vips), s.Limits.MaxVIPs)
	}
	if s.totalRIPs > s.Limits.MaxRIPs {
		return fmt.Errorf("switch %d: %d RIPs > limit %d", s.ID, s.totalRIPs, s.Limits.MaxRIPs)
	}
	if len(s.conns) > s.Limits.MaxConns {
		return fmt.Errorf("switch %d: %d conns > limit %d", s.ID, len(s.conns), s.Limits.MaxConns)
	}
	for i, e := range s.vips {
		if e.sw != s || s.tab.at(e.h) != e || s.tab.slot[e.h].home != s.ID {
			return fmt.Errorf("switch %d: VIP %s entry not in the address table", s.ID, s.tab.addrs[e.h])
		}
		if i > 0 && s.vips[i-1].seq >= e.seq {
			return fmt.Errorf("switch %d: VIPs not in insertion sequence at %s", s.ID, s.tab.addrs[e.h])
		}
	}
	nRIPs := 0
	perVIP := make(map[ids.Index]int)
	for id, c := range s.conns {
		e := s.tab.at(c.h)
		if e == nil || e.sw != s {
			return fmt.Errorf("switch %d: conn %d references unknown VIP handle %d", s.ID, id, c.h)
		}
		if e.find(c.rip) < 0 {
			return fmt.Errorf("switch %d: conn %d references unknown RIP %s", s.ID, id, c.rip)
		}
		perVIP[c.h]++
	}
	for _, e := range s.vips {
		vip := s.tab.addrs[e.h]
		nRIPs += len(e.rips)
		if e.conns != perVIP[e.h] {
			return fmt.Errorf("switch %d: VIP %s conns %d != tracked %d", s.ID, vip, e.conns, perVIP[e.h])
		}
		for _, re := range e.rips {
			if re.weight <= 0 {
				return fmt.Errorf("switch %d: VIP %s RIP %s non-positive weight", s.ID, vip, re.rip)
			}
		}
	}
	if nRIPs != s.totalRIPs {
		return fmt.Errorf("switch %d: totalRIPs %d != sum %d", s.ID, s.totalRIPs, nRIPs)
	}
	return nil
}

// SortVIPsByLoad returns the switch's VIPs sorted by descending fluid
// load, breaking ties by VIP address (lexical order) for determinism.
func (s *Switch) SortVIPsByLoad() []VIP {
	es := slices.Clone(s.vips)
	slices.SortFunc(es, func(a, b *vipEntry) int {
		if c := cmp.Compare(b.loadMbps, a.loadMbps); c != 0 {
			return c
		}
		return s.tab.addrs[a.h].Compare(s.tab.addrs[b.h])
	})
	vips := make([]VIP, len(es))
	for i, e := range es {
		vips[i] = s.tab.addrs[e.h]
	}
	return vips
}
