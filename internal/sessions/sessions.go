// Package sessions drives a core.Platform with discrete client
// sessions, closing the loop the fluid model abstracts: clients resolve
// applications through the platform's authoritative DNS (with TTL-bound
// caches and TTL violators), each session opens a tracked connection on
// the resolved VIP's home switch — pinned to one RIP/VM for its lifetime
// (TCP affinity) — and contributes CPU and bandwidth demand to that VM
// until it ends. Sessions interact with the control knobs exactly as the
// paper describes: a draining VIP keeps receiving straggler sessions
// from stale caches, and a forced VIP transfer breaks the sessions still
// bound to the old switch.
package sessions

import (
	"fmt"
	"math"
	"slices"

	"megadc/internal/audit"
	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/dnsctl"
	"megadc/internal/ids"
	"megadc/internal/lbswitch"
	"megadc/internal/sim"
	"megadc/internal/workload"
)

// Config parameterizes the client side of one application's sessions.
type Config struct {
	// Population is the number of sampled clients (resolver caches).
	Population int
	// ViolatorFraction of clients ignore the DNS TTL.
	ViolatorFraction float64
	// ViolationHoldSec is how long violators keep stale entries.
	ViolationHoldSec float64
	// Template draws each session's duration and resource footprint.
	Template workload.SessionTemplate
}

// DefaultConfig returns a reasonable client model: 1,000 sampled
// clients, 10% TTL violators holding entries 10 minutes too long,
// 30-second sessions of 2 Mbps and 0.02 cores.
func DefaultConfig() Config {
	return Config{
		Population:       1000,
		ViolatorFraction: 0.10,
		ViolationHoldSec: 600,
		Template:         workload.SessionTemplate{MeanDuration: 30, Mbps: 2, CPU: 0.02},
	}
}

// Stats counts session outcomes for one driven application.
type Stats struct {
	Started    int64 // sessions admitted
	Completed  int64 // ended naturally
	Broken     int64 // connection lost to a forced reconfiguration
	NoExposure int64 // DNS had no exposed VIP at arrival
	Rejected   int64 // switch refused the connection (limits, no RIPs)
	Active     int64 // currently running
}

type appDriver struct {
	app     cluster.AppID
	pop     *dnsctl.ClientPopulation
	profile workload.Profile
	stats   Stats
	arrival func() // pre-bound per-arrival callback: arrive, then schedule the next
}

// session is one in-flight session's state, pooled arena-style: records
// are recycled through a sim.Pool, and each record's end-of-session
// callback is bound once at first allocation (capturing only the record
// pointer), so steady-state session churn allocates no per-session
// closure or capture block. At paper scale the driver turns over
// thousands of sessions per simulated second.
type session struct {
	d      *Driver
	ad     *appDriver
	sw     *lbswitch.Switch
	connID lbswitch.ConnID
	vip    ids.Index // fabric handle of the VIP the session arrived through
	vm     cluster.VMID
	res    cluster.Resources
	end    func() // pre-bound close callback, reused across recycles
}

// Driver generates sessions for a set of applications on one platform.
type Driver struct {
	p    *core.Platform
	cfg  Config
	apps map[cluster.AppID]*appDriver
	pool sim.Pool[session] // recycled session records (arena free list)

	// StopAt ends arrival generation (0 = run for the whole simulation).
	StopAt float64
}

// release returns a record to the free list.
func (d *Driver) release(s *session) {
	s.ad, s.sw = nil, nil
	d.pool.Put(s)
}

// NewDriver returns a driver for the platform with the given client
// model.
func NewDriver(p *core.Platform, cfg Config) (*Driver, error) {
	if cfg.Population <= 0 {
		return nil, fmt.Errorf("sessions: population %d", cfg.Population)
	}
	if cfg.Template.MeanDuration <= 0 {
		return nil, fmt.Errorf("sessions: mean duration %v", cfg.Template.MeanDuration)
	}
	d := &Driver{p: p, cfg: cfg, apps: make(map[cluster.AppID]*appDriver)}
	d.pool.New = func(s *session) {
		s.d = d
		s.end = s.close
	}
	return d, nil
}

// AddApp starts generating sessions for app following the arrival-rate
// profile (sessions per second).
func (d *Driver) AddApp(app cluster.AppID, profile workload.Profile) error {
	if _, dup := d.apps[app]; dup {
		return fmt.Errorf("sessions: app %d already driven", app)
	}
	pop, err := dnsctl.NewClientPopulation(d.p.DNS, app, d.cfg.Population,
		d.cfg.ViolatorFraction, d.cfg.ViolationHoldSec, d.p.Rand())
	if err != nil {
		return err
	}
	ad := &appDriver{app: app, pop: pop, profile: profile}
	ad.arrival = func() {
		d.arrive(ad)
		d.scheduleNext(ad)
	}
	d.apps[app] = ad
	d.scheduleNext(ad)
	return nil
}

// Stats returns the outcome counters for app.
func (d *Driver) Stats(app cluster.AppID) Stats {
	if ad, ok := d.apps[app]; ok {
		return ad.stats
	}
	return Stats{}
}

// TotalStats sums the counters across all driven applications.
func (d *Driver) TotalStats() Stats {
	var t Stats
	for _, ad := range d.apps {
		t.Started += ad.stats.Started
		t.Completed += ad.stats.Completed
		t.Broken += ad.stats.Broken
		t.NoExposure += ad.stats.NoExposure
		t.Rejected += ad.stats.Rejected
		t.Active += ad.stats.Active
	}
	return t
}

// Audit appends session-conservation violations to rep (DESIGN.md §9):
// per app, every admitted session is completed, broken, or still active
// (I4.SESSION_CONSERVATION) with non-negative counters, and across the
// driver no more sessions are broken than the fabric recorded forced
// connection breaks (I4.BROKEN_ACCOUNTED) — sessions may only be
// dropped on fault/forced-reconfiguration paths, never by bookkeeping.
func (d *Driver) Audit(rep *audit.Report) {
	apps := make([]cluster.AppID, 0, len(d.apps))
	for app := range d.apps {
		apps = append(apps, app)
	}
	slices.Sort(apps)
	var totalBroken int64
	for _, app := range apps {
		st := d.apps[app].stats
		if st.Started != st.Completed+st.Broken+st.Active {
			rep.Addf("sessions", "I4.SESSION_CONSERVATION",
				fmt.Sprintf("started %d == completed+broken+active", st.Started),
				fmt.Sprintf("%d+%d+%d", st.Completed, st.Broken, st.Active),
				"app %d", app)
		}
		if st.Started < 0 || st.Completed < 0 || st.Broken < 0 ||
			st.NoExposure < 0 || st.Rejected < 0 || st.Active < 0 {
			rep.Addf("sessions", "I4.STATS_NONNEG",
				"non-negative outcome counters", fmt.Sprintf("%+v", st),
				"app %d", app)
		}
		totalBroken += st.Broken
	}
	if totalBroken > d.p.Fabric.BrokenConns {
		rep.Addf("sessions", "I4.BROKEN_ACCOUNTED",
			fmt.Sprintf("broken sessions <= %d fabric-recorded forced breaks",
				d.p.Fabric.BrokenConns),
			fmt.Sprintf("%d", totalBroken), "")
	}
}

func (d *Driver) scheduleNext(ad *appDriver) {
	next := workload.NextArrival(ad.profile, d.p.Eng.Now(), d.p.Rand())
	if math.IsInf(next, 1) {
		return // rate dropped to zero; generation for this app ends
	}
	if d.StopAt > 0 && next > d.StopAt {
		return
	}
	d.p.Eng.At(next, ad.arrival)
}

// arrive handles one session arrival: resolve → connect → hold → close.
func (d *Driver) arrive(ad *appDriver) {
	now := d.p.Eng.Now()
	vi, err := ad.pop.Arrive(now, d.p.Rand())
	if err != nil {
		ad.stats.NoExposure++
		return
	}
	home, ok := d.p.Fabric.Home(vi)
	if !ok {
		ad.stats.NoExposure++
		return
	}
	sw := d.p.Fabric.Switch(home)
	connID, _, tag, err := sw.OpenConn(d.p.Fabric.Addr(vi), d.p.Rand())
	if err != nil {
		ad.stats.Rejected++
		return
	}
	// The platform tags every RIP entry with its VM; an untagged entry
	// backs no VM.
	if tag < 0 {
		sw.CloseConn(connID)
		ad.stats.Rejected++
		return
	}
	vmID := cluster.VMID(tag)
	tpl := d.cfg.Template.Draw(d.p.Rand())
	res := cluster.Resources{CPU: tpl.CPU, NetMbps: tpl.Mbps}
	d.p.SessionOpened(vi, vmID, res)
	ad.stats.Started++
	ad.stats.Active++

	s := d.pool.Get()
	s.ad, s.sw, s.connID, s.vip, s.vm, s.res = ad, sw, connID, vi, vmID, res
	d.p.Eng.After(tpl.Duration, s.end)
}

// close ends one session: close the connection, settle the outcome
// counters, remove the demand overlay, and recycle the record.
func (s *session) close() {
	s.ad.stats.Active--
	// Close on the switch that opened the connection. Connection IDs
	// are per-switch, so closing on the VIP's *current* home after a
	// transfer could tear down an unrelated session that happens to
	// hold the same ID there (I4.SESSION_CONSERVATION regression).
	// A connection never survives a transfer — graceful transfers
	// require quiescence and forced ones break every conn — so a
	// false return here means this session was forcibly broken.
	if closed := s.sw.CloseConn(s.connID); closed {
		s.ad.stats.Completed++
	} else {
		s.ad.stats.Broken++
	}
	s.d.p.SessionClosed(s.vip, s.vm, s.res)
	s.d.release(s)
}
