// Package faults injects rate-driven component churn into a
// core.Platform: servers, LB switches, and access links fail with
// exponentially distributed times-to-failure (MTBF), are noticed by the
// control plane after a configurable detection delay, and come back
// after an exponentially distributed repair time (MTTR) with their
// exact pre-failure capacity restored. Links additionally support
// *flapping* — short repeated down/up cycles that may clear before the
// control plane ever detects them, black-holing traffic with zero route
// churn.
//
// All randomness is drawn from the platform engine's seeded RNG inside
// event callbacks, so a run is bit-for-bit reproducible for a given
// seed and configuration.
package faults

import (
	"fmt"
	"math"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/ctrlplane"
	"megadc/internal/lbswitch"
	"megadc/internal/netmodel"
)

// Class configures one component class's failure behavior. A class with
// MTBF <= 0 never fails.
type Class struct {
	// MTBF is the mean time between failures (per component, seconds of
	// simulated time). Each component's time-to-failure is drawn
	// Exponential(MTBF).
	MTBF float64
	// MTTR is the mean time to repair, measured from detection. Each
	// repair time is drawn Exponential(MTTR).
	MTTR float64
	// DetectDelay is the fixed lag between a fault occurring and the
	// control plane detecting it (health-check interval plus reaction
	// time). During the window the component black-holes its work while
	// monitoring still looks normal.
	DetectDelay float64
}

func (c Class) enabled() bool { return c.MTBF > 0 }

// FlapConfig configures link flapping: episodes of Cycles short
// down/up cycles. A flap whose Down time is shorter than the link
// class's DetectDelay clears before the control plane reacts — pure
// black-holed traffic, no route updates.
type FlapConfig struct {
	// MTBF is the mean time between flap episodes per link; <= 0
	// disables flapping.
	MTBF float64
	// Cycles is how many down/up cycles one episode contains.
	Cycles int
	// Down and Up are the fixed lengths of each cycle's outage and
	// quiet phases.
	Down, Up float64
}

func (f FlapConfig) enabled() bool { return f.MTBF > 0 && f.Cycles > 0 && f.Down > 0 }

// Config configures an Injector.
type Config struct {
	Server Class
	Switch Class
	Link   Class
	Flap   FlapConfig

	// Partition drives control-plane partitions of whole pods: the pod
	// manager keeps running on its last-acknowledged snapshot while every
	// control message to or from it is dropped, until the partition heals
	// and the bus's OnHeal hook triggers reconciliation. DetectDelay is
	// unused — a partition is a message-plane event, not a component
	// health transition. Requires the platform's control bus
	// (Config.Ctrl.Enable); with the bus disabled the class is inert.
	Partition Class

	// MinHealthyServers/Switches/Links are per-class serving floors: a
	// fault that would leave fewer serving components than the floor is
	// skipped (and the component's next failure rescheduled), so churn
	// cannot black out the whole platform.
	MinHealthyServers  int
	MinHealthySwitches int
	MinHealthyLinks    int
	// MinConnectedPods is the partition floor: a partition that would
	// leave fewer reachable pods is skipped.
	MinConnectedPods int
}

// DefaultConfig returns moderate churn: servers fail most often,
// switches and links rarely, no flapping.
func DefaultConfig() Config {
	return Config{
		Server:             Class{MTBF: 2000, MTTR: 180, DetectDelay: 15},
		Switch:             Class{MTBF: 8000, MTTR: 300, DetectDelay: 10},
		Link:               Class{MTBF: 6000, MTTR: 240, DetectDelay: 5},
		Flap:               FlapConfig{MTBF: 0, Cycles: 3, Down: 2, Up: 8},
		Partition:          Class{MTBF: 0, MTTR: 120},
		MinHealthyServers:  2,
		MinHealthySwitches: 1,
		MinHealthyLinks:    1,
		MinConnectedPods:   1,
	}
}

// Validate checks that every class's MTBF, MTTR and DetectDelay and
// the flap timings are finite and >= 0 (0 still disables a class), and
// that the flap cycle count and the serving floors are >= 0. A negative
// or NaN time would schedule an engine event in the past mid-run; an
// infinite one would never fire.
func (c *Config) Validate() error {
	type field struct {
		name string
		v    float64
	}
	times := []field{{"Flap.MTBF", c.Flap.MTBF}, {"Flap.Down", c.Flap.Down}, {"Flap.Up", c.Flap.Up}}
	for _, cl := range []struct {
		name string
		c    Class
	}{{"Server", c.Server}, {"Switch", c.Switch}, {"Link", c.Link}, {"Partition", c.Partition}} {
		times = append(times, field{cl.name + ".MTBF", cl.c.MTBF}, field{cl.name + ".MTTR", cl.c.MTTR},
			field{cl.name + ".DetectDelay", cl.c.DetectDelay})
	}
	for _, f := range times {
		if !(f.v >= 0) || math.IsInf(f.v, 0) {
			return fmt.Errorf("faults: %s must be finite and >= 0, got %v", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		n    int
	}{
		{"Flap.Cycles", c.Flap.Cycles},
		{"MinHealthyServers", c.MinHealthyServers},
		{"MinHealthySwitches", c.MinHealthySwitches},
		{"MinHealthyLinks", c.MinHealthyLinks},
		{"MinConnectedPods", c.MinConnectedPods},
	} {
		if f.n < 0 {
			return fmt.Errorf("faults: %s must be >= 0, got %d", f.name, f.n)
		}
	}
	return nil
}

// Injector drives fault/detect/repair lifecycles on a platform's
// components. Create with New, then Start; counters are plain fields
// read after (or during) the run.
type Injector struct {
	p      *core.Platform
	cfg    Config
	stopAt float64

	// Counters. Faults are counted per class; FlapCycles counts each
	// down/up cycle of every flap episode separately.
	ServerFaults int64
	SwitchFaults int64
	LinkFaults   int64
	FlapEpisodes int64
	FlapCycles   int64
	// PodPartitions/PartitionHeals count control-plane partition windows
	// opened and closed on the platform's message bus.
	PodPartitions  int64
	PartitionHeals int64
	Detections     int64
	Repairs        int64
	// Skipped counts faults suppressed by the min-healthy floors.
	Skipped int64

	// server, swtch and link describe the three component classes to
	// inject.
	server, swtch, link domain
}

// domain describes one component class to inject: its config and
// floor, the counter of its faults, and the platform's component count,
// serving check and lifecycle calls, by integer component ID. IDs run
// 0..n()-1; components are never removed, so every ID below n() is
// known.
type domain struct {
	cfg     Class
	floor   int
	faults  *int64
	n       func() int
	serving func(id int) bool
	fault   func(id int) error
	detect  func(id int) error
	repair  func(id int) error
}

// New returns an injector for p. Nothing is scheduled until Start.
func New(p *core.Platform, cfg Config) *Injector {
	in := &Injector{p: p, cfg: cfg}
	in.server = domain{
		cfg: cfg.Server, floor: cfg.MinHealthyServers, faults: &in.ServerFaults, n: p.Cluster.NumServers,
		serving: func(id int) bool { return p.Cluster.Server(cluster.ServerID(id)).Serving() },
		fault:   func(id int) error { return p.FaultServer(cluster.ServerID(id)) },
		detect: func(id int) error {
			_, err := p.DetectServer(cluster.ServerID(id))
			return err
		},
		repair: func(id int) error { return p.RepairServer(cluster.ServerID(id)) },
	}
	in.swtch = domain{
		cfg: cfg.Switch, floor: cfg.MinHealthySwitches, faults: &in.SwitchFaults, n: p.Fabric.NumSwitches,
		serving: func(id int) bool { return p.Fabric.Switch(lbswitch.SwitchID(id)).Serving() },
		fault:   func(id int) error { return p.FaultSwitch(lbswitch.SwitchID(id)) },
		detect: func(id int) error {
			_, _, err := p.DetectSwitch(lbswitch.SwitchID(id))
			return err
		},
		repair: func(id int) error { return p.RepairSwitch(lbswitch.SwitchID(id)) },
	}
	in.link = domain{
		cfg: cfg.Link, floor: cfg.MinHealthyLinks, faults: &in.LinkFaults, n: p.Net.NumLinks,
		serving: func(id int) bool { return p.Net.Link(netmodel.LinkID(id)).Serving() },
		fault:   func(id int) error { return p.FaultLink(netmodel.LinkID(id)) },
		detect: func(id int) error {
			_, err := p.DetectLink(netmodel.LinkID(id))
			return err
		},
		repair: func(id int) error { return p.RepairLink(netmodel.LinkID(id)) },
	}
	return in
}

// Start schedules the first failure of every component. Faults stop
// firing at stopAt (so a run can end with a repair-only tail), but
// in-flight detections and repairs complete normally.
func (in *Injector) Start(stopAt float64) {
	in.stopAt = stopAt
	for _, c := range []*domain{&in.server, &in.swtch, &in.link} {
		if c.cfg.enabled() {
			for id := 0; id < c.n(); id++ {
				in.p.Eng.After(in.exp(c.cfg.MTBF), func() { in.inject(c, id) })
			}
		}
	}
	if in.cfg.Flap.enabled() {
		for id := 0; id < in.link.n(); id++ {
			in.p.Eng.After(in.exp(in.cfg.Flap.MTBF), func() { in.flapLink(id, in.cfg.Flap.Cycles) })
		}
	}
	if in.cfg.Partition.enabled() && in.p.Ctrl().Enabled() {
		for _, pm := range in.p.PodManagers() {
			id := int(pm.PodID())
			in.p.Eng.After(in.exp(in.cfg.Partition.MTBF), func() { in.partitionPod(id) })
		}
	}
}

// Faults returns the total faults injected across all classes,
// counting each flap cycle as one fault.
func (in *Injector) Faults() int64 {
	return in.ServerFaults + in.SwitchFaults + in.LinkFaults + in.FlapCycles
}

// exp draws Exponential(mean) from the platform's seeded RNG.
func (in *Injector) exp(mean float64) float64 {
	return in.p.Eng.Rand().ExpFloat64() * mean
}

// admit reports whether component id may fault now: it must be
// serving, and faulting it must not leave fewer serving components than
// the class floor.
func (c *domain) admit(id int) bool {
	if !c.serving(id) {
		return false
	}
	n := 0
	for i := 0; i < c.n(); i++ {
		if c.serving(i) {
			n++
		}
	}
	return n > c.floor
}

// inject faults component id of class c, unless the floor forbids it,
// schedules its detection after the class's DetectDelay and its repair
// Exponential(MTTR) after that, and reschedules its next failure once
// it is repaired or skipped.
func (in *Injector) inject(c *domain, id int) {
	if in.p.Eng.Now() >= in.stopAt {
		return
	}
	reschedule := func() { in.p.Eng.After(in.exp(c.cfg.MTBF), func() { in.inject(c, id) }) }
	if !c.admit(id) {
		in.Skipped++
		reschedule()
		return
	}
	if err := c.fault(id); err != nil {
		return
	}
	*c.faults++
	in.p.Eng.After(c.cfg.DetectDelay, func() {
		if err := c.detect(id); err == nil {
			in.Detections++
		}
	})
	in.p.Eng.After(c.cfg.DetectDelay+in.exp(c.cfg.MTTR), func() {
		if err := c.repair(id); err == nil {
			in.Repairs++
		}
		reschedule()
	})
}

// partitionPod opens a control-plane partition window around one pod:
// every bus message to or from the pod is dropped until the window
// heals after Exponential(MTTR). Healing fires the bus's OnHeal hook,
// which the platform wires to the pod manager's reconciliation.
func (in *Injector) partitionPod(id int) {
	if in.p.Eng.Now() >= in.stopAt {
		return
	}
	cl := in.cfg.Partition
	reschedule := func() { in.p.Eng.After(in.exp(cl.MTBF), func() { in.partitionPod(id) }) }
	bus := in.p.Ctrl()
	ep := ctrlplane.Pod(id)
	if bus.Partitioned(ep) || bus.ConnectedPods(len(in.p.PodManagers())) <= in.cfg.MinConnectedPods {
		in.Skipped++
		reschedule()
		return
	}
	bus.Partition(ep)
	in.PodPartitions++
	in.p.Eng.After(in.exp(cl.MTTR), func() {
		bus.Heal(ep)
		in.PartitionHeals++
		reschedule()
	})
}

// flapLink runs one flap episode: cyclesLeft down/up cycles. Each cycle
// faults the link, schedules the normal detection, and repairs after
// the fixed Down time — cancelling the detection if the fault cleared
// first (a fast flap the control plane never saw).
func (in *Injector) flapLink(id int, cyclesLeft int) {
	if in.p.Eng.Now() >= in.stopAt {
		return
	}
	reschedule := func() {
		in.p.Eng.After(in.exp(in.cfg.Flap.MTBF), func() { in.flapLink(id, in.cfg.Flap.Cycles) })
	}
	if !in.link.admit(id) {
		in.Skipped++
		reschedule()
		return
	}
	if err := in.link.fault(id); err != nil {
		return
	}
	in.FlapCycles++
	det := in.p.Eng.After(in.cfg.Link.DetectDelay, func() {
		if err := in.link.detect(id); err == nil {
			in.Detections++
		}
	})
	in.p.Eng.After(in.cfg.Flap.Down, func() {
		// The link came back on its own; make sure the control plane
		// does not react to a fault that already cleared. Cancel is a
		// no-op if the detection already fired (slow flap).
		in.p.Eng.Cancel(det)
		if err := in.link.repair(id); err == nil {
			in.Repairs++
		}
		if cyclesLeft > 1 {
			in.p.Eng.After(in.cfg.Flap.Up, func() { in.flapLink(id, cyclesLeft-1) })
		} else {
			in.FlapEpisodes++
			reschedule()
		}
	})
}
