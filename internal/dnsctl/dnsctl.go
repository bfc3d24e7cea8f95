// Package dnsctl models the platform's authoritative DNS system — the
// actuator behind the paper's *selective VIP exposure* knob (Section
// IV-A). Each application resolves to one of its VIPs; the global
// manager adjusts per-VIP exposure weights so that client traffic shifts
// toward VIPs advertised over lightly-loaded access links (or configured
// on lightly-loaded LB switches), without issuing route updates.
//
// The package also models the client side: a population of resolvers
// with TTL-bound caches, including the fraction of clients that violate
// TTLs (per the paper's citations of Pang et al. and Callahan et al.) —
// the reason a VIP being drained for transfer keeps receiving stragglers.
//
// Each exposure carries the VIP's address and its dense handle (the
// ids.Index the platform's lbswitch.Fabric assigns, DESIGN.md §22).
// Management writes name a VIP by address; the per-request path —
// Resolve, ExpectedShares and the client caches — hands out handles, so
// a resolution reaches the VIP's switch without hashing an address.
package dnsctl

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"

	"megadc/internal/cluster"
	"megadc/internal/ids"
	"megadc/internal/ipv4"
	"megadc/internal/trace"
)

// Errors returned by DNS operations.
var (
	ErrNoApp     = errors.New("dnsctl: application not registered")
	ErrNoVIP     = errors.New("dnsctl: VIP not registered for application")
	ErrNoExposed = errors.New("dnsctl: application has no exposed VIPs")
	ErrDupVIP    = errors.New("dnsctl: VIP already registered")
	ErrStaleGen  = errors.New("dnsctl: record changed since the write was issued")
)

type exposure struct {
	vip    ipv4.Addr
	h      ids.Index
	weight float64
}

// record is an application's record, held by value in DNS.records so
// a read reaches its exposures in one load less than through a pointer.
type record struct {
	vips []exposure // insertion order, deterministic
	gen  int64      // bumped on every membership or weight change; 0 = no record
}

// DNS is the authoritative DNS of the platform.
type DNS struct {
	ttl     float64  // seconds
	records []record // indexed by AppID

	// Resolutions counts queries answered; WeightChanges counts exposure
	// reconfigurations (an agility/complexity output for E4/E5).
	// StaleWrites counts SetWeightIfGen calls rejected because the record
	// moved on — delayed or reordered control-plane writes that would
	// have clobbered a newer decision.
	Resolutions   int64
	WeightChanges int64
	StaleWrites   int64

	// OnChange, when set, is called after any change to an application's
	// record (VIP registered/unregistered, weight changed). The platform
	// uses it to mark the application dirty for incremental demand
	// propagation; Gen gives caches a cheap staleness check.
	OnChange func(app cluster.AppID)

	tracer *trace.Recorder
}

// SetTracer attaches the flight recorder: every effective SetWeight
// write (and every stale-rejected SetWeightIfGen write) records an
// EvDNSWrite event carrying the weight and record generation, so the
// causal assembler can place authoritative DNS actuation inside a
// decision's span tree. Nil disables DNS tracing.
func (d *DNS) SetTracer(r *trace.Recorder) { d.tracer = r }

// Gen returns a generation counter for app's record that increases on
// every change, or 0 when the app has no record. Caches of derived
// values (e.g. expected shares) stay valid while the generation holds.
func (d *DNS) Gen(app cluster.AppID) int64 {
	if r := d.record(app); r != nil {
		return r.gen
	}
	return 0
}

// record returns app's record, or nil. The pointer is valid until the
// next Register of a new application grows the table.
func (d *DNS) record(app cluster.AppID) *record {
	if app < 0 || int(app) >= len(d.records) || d.records[app].gen == 0 {
		return nil
	}
	return &d.records[app]
}

func (d *DNS) changed(app cluster.AppID, r *record) {
	r.gen++
	if d.OnChange != nil {
		d.OnChange(app)
	}
}

// New returns a DNS with the given record TTL in seconds. It panics
// unless the TTL is positive and finite: a NaN TTL would make client
// caches never expire.
func New(ttlSeconds float64) *DNS {
	if !(ttlSeconds > 0) || math.IsInf(ttlSeconds, 0) {
		panic("dnsctl: TTL must be positive and finite")
	}
	return &DNS{ttl: ttlSeconds}
}

// TTL returns the record TTL in seconds.
func (d *DNS) TTL() float64 { return d.ttl }

// Register adds the VIP with address vip and handle h for app with the
// given exposure weight (0 hides the VIP from resolution while keeping
// it registered).
func (d *DNS) Register(app cluster.AppID, vip ipv4.Addr, h ids.Index, weight float64) error {
	if weight < 0 {
		return fmt.Errorf("dnsctl: negative weight %v", weight)
	}
	if app < 0 {
		return fmt.Errorf("%w: %d", ErrNoApp, app)
	}
	if int(app) >= len(d.records) {
		d.records = append(d.records, make([]record, int(app)+1-len(d.records))...)
	}
	r := &d.records[app] // a new record has gen 0 until changed below
	for _, e := range r.vips {
		if e.vip == vip {
			return fmt.Errorf("%w: %s", ErrDupVIP, vip)
		}
	}
	r.vips = append(r.vips, exposure{vip: vip, h: h, weight: weight})
	d.changed(app, r)
	return nil
}

// Unregister removes a VIP from app's record.
func (d *DNS) Unregister(app cluster.AppID, vip ipv4.Addr) error {
	r := d.record(app)
	if r == nil {
		return fmt.Errorf("%w: %d", ErrNoApp, app)
	}
	for i, e := range r.vips {
		if e.vip == vip {
			r.vips = append(r.vips[:i], r.vips[i+1:]...)
			d.changed(app, r)
			return nil
		}
	}
	return fmt.Errorf("%w: %s", ErrNoVIP, vip)
}

// SetWeight changes the exposure weight of one VIP. Weight 0 stops
// exposing the VIP to new resolutions (the drain step of knob B).
func (d *DNS) SetWeight(app cluster.AppID, vip ipv4.Addr, weight float64) error {
	if weight < 0 {
		return fmt.Errorf("dnsctl: negative weight %v", weight)
	}
	r := d.record(app)
	if r == nil {
		return fmt.Errorf("%w: %d", ErrNoApp, app)
	}
	for i, e := range r.vips {
		if e.vip == vip {
			if e.weight != weight {
				r.vips[i].weight = weight
				d.WeightChanges++
				d.changed(app, r)
				d.tracer.Record(trace.EvDNSWrite, weight, float64(r.gen), trace.App(app), trace.VIP(vip))
			}
			return nil
		}
	}
	return fmt.Errorf("%w: %s", ErrNoVIP, vip)
}

// SetWeightIfGen is SetWeight conditioned on the record's generation:
// the write only lands if app's record still has the generation the
// caller observed when it issued the write. A message-bus write that was
// delayed or reordered past another change returns ErrStaleGen instead
// of clobbering the newer decision (optimistic concurrency for the
// asynchronous control plane).
func (d *DNS) SetWeightIfGen(app cluster.AppID, vip ipv4.Addr, weight float64, gen int64) error {
	if d.Gen(app) != gen {
		d.StaleWrites++
		d.tracer.RecordErr(trace.EvDNSWrite, weight, float64(gen), trace.App(app), trace.VIP(vip))
		return fmt.Errorf("%w: app %d gen %d != %d", ErrStaleGen, app, d.Gen(app), gen)
	}
	return d.SetWeight(app, vip, weight)
}

// ExposeOnly sets weight 1 on the listed VIPs and 0 on all of app's
// other VIPs.
func (d *DNS) ExposeOnly(app cluster.AppID, vips ...ipv4.Addr) error {
	r := d.record(app)
	if r == nil {
		return fmt.Errorf("%w: %d", ErrNoApp, app)
	}
	for _, v := range vips {
		found := false
		for _, e := range r.vips {
			if e.vip == v {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("%w: %s", ErrNoVIP, v)
		}
	}
	dirty := false
	for i := range r.vips {
		w := 0.0
		if slices.Contains(vips, r.vips[i].vip) {
			w = 1.0
		}
		if r.vips[i].weight != w {
			r.vips[i].weight = w
			d.WeightChanges++
			dirty = true
		}
	}
	if dirty {
		d.changed(app, r)
	}
	return nil
}

// Weights returns app's VIPs and exposure weights in registration order.
func (d *DNS) Weights(app cluster.AppID) (vips []ipv4.Addr, weights []float64, err error) {
	return d.AppendWeights(app, nil, nil)
}

// AppendWeights is Weights appending to caller-provided buffers, so a
// scan over every application can reuse one pair.
func (d *DNS) AppendWeights(app cluster.AppID, vips []ipv4.Addr, weights []float64) ([]ipv4.Addr, []float64, error) {
	r := d.record(app)
	if r == nil {
		return vips, weights, fmt.Errorf("%w: %d", ErrNoApp, app)
	}
	for _, e := range r.vips {
		vips = append(vips, e.vip)
		weights = append(weights, e.weight)
	}
	return vips, weights, nil
}

// Apps returns every application with a DNS record, sorted.
func (d *DNS) Apps() []cluster.AppID {
	var out []cluster.AppID
	for app := range d.records {
		if d.records[app].gen != 0 {
			out = append(out, cluster.AppID(app))
		}
	}
	return out
}

// VIPs returns app's registered VIPs in lexical address order
// (ipv4.Addr.Compare).
func (d *DNS) VIPs(app cluster.AppID) []ipv4.Addr {
	r := d.record(app)
	if r == nil {
		return nil
	}
	out := make([]ipv4.Addr, 0, len(r.vips))
	for _, e := range r.vips {
		out = append(out, e.vip)
	}
	slices.SortFunc(out, ipv4.Addr.Compare)
	return out
}

// Resolve answers one query for app with a weighted choice among the
// exposed (weight > 0) VIPs, returning the chosen VIP's handle. Its
// misses return ErrNoApp and ErrNoExposed themselves, unwrapped: every
// request arrival for an app with nothing exposed takes that path, so
// it allocates nothing.
func (d *DNS) Resolve(app cluster.AppID, rng *rand.Rand) (ids.Index, error) {
	r := d.record(app)
	if r == nil {
		return ids.None, ErrNoApp
	}
	total := Exposures{r.vips}.Total()
	if total <= 0 {
		return ids.None, ErrNoExposed
	}
	d.Resolutions++
	x := rng.Float64() * total
	for _, e := range r.vips {
		x -= e.weight
		if x < 0 && e.weight > 0 {
			return e.h, nil
		}
	}
	// Numeric edge: return the last exposed VIP.
	for i := len(r.vips) - 1; i >= 0; i-- {
		if r.vips[i].weight > 0 {
			return r.vips[i].h, nil
		}
	}
	return ids.None, ErrNoExposed
}

// ExpectedShares returns the steady-state fraction of resolutions each
// registered VIP receives, with the VIPs' handles, in registration order.
func (d *DNS) ExpectedShares(app cluster.AppID) (vips []ids.Index, shares []float64, err error) {
	if d.record(app) == nil {
		return nil, nil, fmt.Errorf("%w: %d", ErrNoApp, app)
	}
	x := d.Exposures(app)
	total := x.Total()
	for i := 0; i < x.Len(); i++ {
		vips = append(vips, x.Handle(i))
		shares = append(shares, x.Share(i, total))
	}
	return vips, shares, nil
}

// Exposures is a read-only view of an application's record: its VIPs'
// handles and exposure weights in registration order. It aliases the
// record, so taking one allocates nothing; it is valid until the next
// change to the DNS.
type Exposures struct{ e []exposure }

// Exposures returns app's record as a view; an app without a record
// reads as one with no VIPs.
func (d *DNS) Exposures(app cluster.AppID) Exposures {
	if app < 0 || int(app) >= len(d.records) {
		return Exposures{}
	}
	return Exposures{d.records[app].vips}
}

// Len returns the number of registered VIPs.
func (x Exposures) Len() int { return len(x.e) }

// Handle returns the i-th VIP's handle.
func (x Exposures) Handle(i int) ids.Index { return x.e[i].h }

// Total returns the sum of the exposure weights, added in registration
// order.
func (x Exposures) Total() float64 {
	var total float64
	for _, e := range x.e {
		total += e.weight
	}
	return total
}

// Share returns the i-th VIP's expected fraction of resolutions given
// the view's Total: weight/total, or 0 when nothing is exposed.
func (x Exposures) Share(i int, total float64) float64 {
	if total > 0 {
		return x.e[i].weight / total
	}
	return 0
}
