package dnsctl

import (
	"fmt"
	"math/rand"

	"megadc/internal/cluster"
	"megadc/internal/ids"
)

// ClientPopulation models the resolver caches of a pool of clients for
// one application. Each client caches the VIP it last resolved until the
// record's TTL expires; a configurable fraction of clients are *TTL
// violators* who keep using a stale answer for an extended period after
// expiry (the paper cites [18], [4] for this behaviour, and it is the
// reason VIP drains never fully quiesce immediately).
//
// The population is sampled: each arrival is attributed to a client
// chosen uniformly at random, which re-resolves only if its cached entry
// has expired. With N clients this reproduces the aggregate cache-decay
// dynamics that matter for the drain experiments at a cost independent
// of the real client count.
type ClientPopulation struct {
	app cluster.AppID
	dns *DNS

	violatorFraction float64 // fraction of clients that ignore TTL
	violationHold    float64 // extra seconds a violator keeps a stale entry

	clients []clientCache
}

// clientCache is one client's cached answer. Every arrival touches one
// random entry, so the fields are ordered widest first: 16 bytes, not
// the 24 that padding costs with the handle ahead of the float.
type clientCache struct {
	expiry   float64
	vip      ids.Index // handle of the cached answer
	violator bool
}

// NewClientPopulation creates a population of n sampled clients for app.
// violatorFraction in [0,1] of them hold entries for violationHold extra
// seconds past the TTL.
func NewClientPopulation(dns *DNS, app cluster.AppID, n int, violatorFraction, violationHold float64, rng *rand.Rand) (*ClientPopulation, error) {
	p := new(ClientPopulation)
	if err := p.Init(dns, app, n, violatorFraction, violationHold, rng); err != nil {
		return nil, err
	}
	return p, nil
}

// Init sets p up in place as NewClientPopulation would, drawing the same
// violator flags from rng, so a caller can keep populations inside its
// own records. On error p is left unchanged and nothing is drawn.
func (p *ClientPopulation) Init(dns *DNS, app cluster.AppID, n int, violatorFraction, violationHold float64, rng *rand.Rand) error {
	if n <= 0 {
		return fmt.Errorf("dnsctl: population size %d", n)
	}
	if violatorFraction < 0 || violatorFraction > 1 {
		return fmt.Errorf("dnsctl: violator fraction %v out of [0,1]", violatorFraction)
	}
	if violationHold < 0 {
		return fmt.Errorf("dnsctl: negative violation hold %v", violationHold)
	}
	*p = ClientPopulation{
		app:              app,
		dns:              dns,
		violatorFraction: violatorFraction,
		violationHold:    violationHold,
		clients:          make([]clientCache, n),
	}
	for i := range p.clients {
		p.clients[i].vip = ids.None
		p.clients[i].expiry = -1 // nothing cached
		p.clients[i].violator = rng.Float64() < violatorFraction
	}
	return nil
}

// Arrive attributes one session arrival at time t to a random client and
// returns the handle of the VIP the client connects to. The client
// re-resolves if its cache has expired (violators hold entries longer).
func (p *ClientPopulation) Arrive(t float64, rng *rand.Rand) (ids.Index, error) {
	c := &p.clients[rng.Intn(len(p.clients))]
	hold := p.dns.TTL()
	if c.violator {
		hold += p.violationHold
	}
	if c.expiry < 0 || t > c.expiry || c.vip == ids.None {
		vip, err := p.dns.Resolve(p.app, rng)
		if err != nil {
			return ids.None, err
		}
		c.vip = vip
		c.expiry = t + hold
	}
	return c.vip, nil
}

// UsingVIP returns the fraction of clients whose *currently cached and
// unexpired* entry (at time t) is the VIP with handle vip. Clients with
// no valid cache count as not using it.
func (p *ClientPopulation) UsingVIP(vip ids.Index, t float64) float64 {
	n := 0
	for i := range p.clients {
		c := &p.clients[i]
		if c.vip == vip && c.expiry >= 0 && t <= c.expiry {
			n++
		}
	}
	return float64(n) / float64(len(p.clients))
}

// Size returns the number of sampled clients.
func (p *ClientPopulation) Size() int { return len(p.clients) }

// ViolatorFraction returns the configured TTL-violator fraction.
func (p *ClientPopulation) ViolatorFraction() float64 { return p.violatorFraction }
