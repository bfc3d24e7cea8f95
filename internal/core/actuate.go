package core

// One actuation path (DESIGN.md §17): each of the managers' twelve
// decision sites states an Action, and Platform.actuate owns cause
// allocation, in-flight claims, the actuation latency, bus routing, and
// the serialized-vs-direct choice for switch-configuration requests.

import (
	"errors"

	"megadc/internal/ctrlplane"
	"megadc/internal/ids"
	"megadc/internal/trace"
	"megadc/internal/viprip"
)

// errDeadLetter marks a request whose control message exhausted its
// retry cap before the request completed.
var errDeadLetter = errors.New("core: control-plane message dead-lettered")

// Action is one manager decision, stated as what to change; actuate
// decides how the change travels.
type Action struct {
	// Knob, Prio and Refs describe the decision: they are recorded on
	// the EvDecision root of its causal tree.
	Knob Knob
	Prio viprip.Priority
	Refs []trace.Ref

	// Delay is the actuation latency between the decision and the
	// effect's dispatch. An Inline action dispatches within the deciding
	// call instead.
	Delay  float64
	Inline bool

	// Claim, when set, is held from the decision until the delay
	// elapses, so the deciding manager does not decide the same thing
	// again while the action is in flight.
	Claim claimKey

	// Dispatch, when set, runs as the delay elapses, after Claim is
	// released, before the effect leaves and outside the decision's
	// cause scope: it captures send-time state.
	Dispatch func()

	// From, To and Name route the effect as one control RPC. With no To
	// the effect applies where the decision was made, with no message.
	From, To ctrlplane.Endpoint
	Name     string

	// Apply is the effect, run under the decision's cause where the
	// message lands. OnDead, when set, runs if the message exhausts its
	// retries (see ctrlplane.Bus.Call for the at-least-once caveat).
	Apply  func()
	OnDead func()

	// Request, in place of Apply, is a switch-configuration request sent
	// through configure. On a serialized pipeline the pipeline's service
	// time models the reconfiguration latency, so Delay is skipped.
	Request *viprip.Request
}

// actuate records the decision, then dispatches its effect after the
// actuation latency along the action's route. It returns the decision's
// CauseID (0 on untraced runs) so multi-step protocols can continue
// under it.
func (p *Platform) actuate(a Action) uint64 {
	cid := p.decide(a.Knob, a.Prio, a.Refs...)
	var tok uint64
	if a.Claim.kind != claimNone {
		tok = p.claims.claim(a.Claim)
	}
	dispatch := func() {
		p.claims.release(a.Claim, tok)
		if a.Dispatch != nil {
			a.Dispatch()
		}
		p.Cfg.Trace.WithCause(cid, func() {
			apply := a.Apply
			if r := a.Request; r != nil {
				apply = func() { p.configure(r) }
			}
			if a.To == "" {
				apply()
				return
			}
			p.send(a.From, a.To, a.Name, apply, a.OnDead)
		})
	}
	if a.Inline || (a.Request != nil && p.VIPRIP.Serialized()) {
		dispatch()
	} else {
		p.Eng.After(a.Delay, dispatch)
	}
	return cid
}

// claimKind is what a claim holds. It is as wide as claimKey's owner,
// so the key has no padding and the claim map hashes it in one call.
type claimKind uint32

const (
	claimNone   claimKind = iota
	claimServer           // a server being vacated for transfer (knob C)
	claimDeploy           // an application being deployed (knob D)
	claimVM               // a VM being resized or migrated (knob E)
	claimDrain            // a VIP being drained for transfer (knob B)
)

// globalOwner owns the global manager's claims. A pod manager's claims
// are owned by its pod ID, so a global and a pod-local deployment of
// one application never collide.
const globalOwner = -1

// claimKey names one claim: its owner, its kind, and the entity, by ID
// or, for a drain, by VIP handle.
type claimKey struct {
	owner int32
	kind  claimKind
	id    int64
}

// claimOf names owner's claim on the entity with ID id.
func claimOf(owner int, k claimKind, id int) claimKey {
	return claimKey{owner: int32(owner), kind: k, id: int64(id)}
}

// drainClaim names the global manager's claim on the VIP with handle h,
// which it drains.
func drainClaim(h ids.Index) claimKey {
	return claimKey{owner: globalOwner, kind: claimDrain, id: int64(h)}
}

// claimTable holds the claims in flight, each with the token it was
// taken with. Claiming a held key hands it to the new claimant: the old
// token no longer holds it, so the old claimant's release is a no-op.
//
// Beside the map, n counts per kind and entity ID how many owners hold
// a claim on the entity, so held answers "no" — nearly every answer the
// managers' per-VM scans get — with one load instead of a map probe.
// The count tables grow lazily, to the highest ID ever claimed.
type claimTable struct {
	m   map[claimKey]uint64
	n   [claimDrain + 1][]int32
	seq uint64
}

// claim takes k and returns the (never zero) token that holds it.
func (c *claimTable) claim(k claimKey) uint64 {
	if c.m == nil {
		c.m = make(map[claimKey]uint64)
	}
	if _, ok := c.m[k]; !ok && k.id >= 0 {
		n := &c.n[k.kind]
		*n = growSlice(*n, int(k.id)+1)
		(*n)[k.id]++
	}
	c.seq++
	c.m[k] = c.seq
	return c.seq
}

// held reports whether anyone holds k.
func (c *claimTable) held(k claimKey) bool {
	if k.id >= 0 {
		if n := c.n[k.kind]; k.id >= int64(len(n)) || n[k.id] == 0 {
			return false
		}
	}
	_, ok := c.m[k]
	return ok
}

// heldBy reports whether token tok still holds k.
func (c *claimTable) heldBy(k claimKey, tok uint64) bool {
	return tok != 0 && c.m[k] == tok
}

// release drops k if token tok still holds it.
func (c *claimTable) release(k claimKey, tok uint64) {
	if c.heldBy(k, tok) {
		delete(c.m, k)
		if k.id >= 0 {
			c.n[k.kind][k.id]--
		}
	}
}

// decide allocates a CauseID for one control decision and records its
// EvDecision root — knob code, priority class, and the entity refs the
// decision concerns — under that cause scope. On untraced runs it is a
// no-op returning 0. Cause allocation happens only in single-threaded
// control code and consumes no engine randomness, so traced runs stay
// byte-identical to untraced ones and CauseIDs are identical for any
// Propagate worker count.
func (p *Platform) decide(k Knob, prio viprip.Priority, refs ...trace.Ref) uint64 {
	rec := p.Cfg.Trace
	cid := rec.NewCause()
	if cid == 0 {
		return 0
	}
	rec.WithCause(cid, func() { rec.Record(trace.EvDecision, float64(k), float64(prio), refs...) })
	return cid
}

// later runs f under cause cid after d simulated seconds: the next step
// of a multi-step actuation.
func (p *Platform) later(cid uint64, d float64, f func()) {
	p.Eng.After(d, func() { p.Cfg.Trace.WithCause(cid, f) })
}

// send carries apply from one control endpoint to another as an
// at-least-once RPC; onDead (may be nil) runs if it dead-letters.
func (p *Platform) send(from, to ctrlplane.Endpoint, name string, apply, onDead func()) {
	p.ctrl.Call(from, to, name, apply, onDead)
}

// configure sends a switch-configuration request down the CSM pipeline:
// queued behind earlier work when the pipeline is serialized, applied at
// once otherwise. Either way r.OnDone runs when the request completes.
func (p *Platform) configure(r *viprip.Request) {
	if p.VIPRIP.Serialized() {
		p.VIPRIP.Submit(r)
		return
	}
	p.VIPRIP.Do(r)
}

// request sends r from an endpoint to the CSM pipeline and reports its
// outcome exactly once: the request's own result when it completes, or
// errDeadLetter when its message dead-letters first. At-least-once
// delivery can fire both paths (a delivered request whose acks were all
// lost still dead-letters); whichever comes second is ignored.
func (p *Platform) request(from ctrlplane.Endpoint, name string, r *viprip.Request, done func(err error, broken int64)) {
	settled := false
	settle := func(err error, broken int64) {
		if settled {
			return
		}
		settled = true
		done(err, broken)
	}
	r.OnDone = func(r *viprip.Request) { settle(r.Err, r.Result.Broken) }
	p.send(from, ctrlplane.CSM, name, func() { p.configure(r) }, func() { settle(errDeadLetter, 0) })
}
