// Package energy extends the platform with the energy objective the
// paper's related-work section points at ("In addition to maximizing
// utilization, energy is another objective... our general architectural
// framework fully applies to this resource management aspect"): a
// linear server power model, an energy meter integrating power over
// simulated time, and a consolidator — an additional pod-local control
// knob that vacates underutilized servers (live-migrating their VMs
// within the pod) and powers them off, powering them back on when pod
// utilization climbs.
package energy

import (
	"fmt"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/metrics"
)

// PowerModel is the standard linear server power model: idle power plus
// a utilization-proportional span. A powered-off server draws nothing.
type PowerModel struct {
	IdleWatts float64
	PeakWatts float64
}

// DefaultPowerModel matches commodity 2-socket servers of the paper's
// era: ~150 W idle, ~300 W at full load.
func DefaultPowerModel() PowerModel { return PowerModel{IdleWatts: 150, PeakWatts: 300} }

// Watts returns the draw at the given utilization (clamped to [0,1]).
func (m PowerModel) Watts(util float64) float64 {
	if util < 0 {
		util = 0
	}
	if util > 1 {
		util = 1
	}
	return m.IdleWatts + (m.PeakWatts-m.IdleWatts)*util
}

// Meter integrates the platform's power draw over simulated time.
// Powered-off servers (managed by a Consolidator, or any server with
// zero capacity) draw nothing.
type Meter struct {
	p     *core.Platform
	model PowerModel
	gauge metrics.Gauge
}

// NewMeter returns a meter over the platform.
func NewMeter(p *core.Platform, model PowerModel) *Meter {
	return &Meter{p: p, model: model}
}

// Sample records the current total draw at the platform's current
// simulated time. Call periodically (e.g. via Eng.Every).
func (m *Meter) Sample() {
	m.gauge.Set(m.p.Eng.Now(), m.CurrentWatts())
}

// CurrentWatts computes the instantaneous platform draw.
func (m *Meter) CurrentWatts() float64 {
	var total float64
	for _, id := range m.p.Cluster.ServerIDs() {
		srv := m.p.Cluster.Server(id)
		if srv.Capacity.IsZero() {
			continue // powered off (or failed)
		}
		total += m.model.Watts(srv.Utilization())
	}
	return total
}

// AverageWatts returns the time-weighted mean draw up to time t.
func (m *Meter) AverageWatts(t float64) float64 { return m.gauge.Average(t) }

// EnergyWh returns the integrated energy up to time t in watt-hours.
func (m *Meter) EnergyWh(t float64) float64 { return m.gauge.Average(t) * t / 3600 }

// Consolidator is the energy knob: it powers off servers the pod does
// not need and powers them back on under pressure. It follows the same
// design rules as the paper's knobs — pod-local migrations only, one
// action per pod per step, and hysteresis between the off and on
// thresholds to avoid flapping.
type Consolidator struct {
	p *core.Platform

	// PowerOffBelow: a pod whose demand-utilization (over powered-on
	// capacity) is below this may power a server off.
	PowerOffBelow float64
	// PowerOnAbove: a pod above this powers a server back on.
	PowerOnAbove float64
	// PackCeiling: migrations during vacating must not push a target
	// server's slice utilization above this.
	PackCeiling float64

	// Counters.
	PowerOffs  int64
	PowerOns   int64
	Migrations int64

	off map[cluster.ServerID]cluster.Resources // saved capacities
}

// NewConsolidator returns a consolidator with the default thresholds
// (off below 45%, on above 75%, pack to 90%).
func NewConsolidator(p *core.Platform) *Consolidator {
	return &Consolidator{
		p:             p,
		PowerOffBelow: 0.45,
		PowerOnAbove:  0.75,
		PackCeiling:   0.90,
		off:           make(map[cluster.ServerID]cluster.Resources),
	}
}

// PoweredOff returns the number of currently powered-off servers.
func (c *Consolidator) PoweredOff() int { return len(c.off) }

// IsOff reports whether the consolidator powered the server off.
func (c *Consolidator) IsOff(id cluster.ServerID) bool {
	_, ok := c.off[id]
	return ok
}

// Step runs one consolidation pass over every pod.
func (c *Consolidator) Step() {
	for _, pm := range c.p.PodManagers() {
		c.stepPod(pm.PodID())
	}
}

func (c *Consolidator) stepPod(pod cluster.PodID) {
	util := c.p.Pod(pod).Utilization() // demand over powered-on capacity
	switch {
	case util > c.PowerOnAbove:
		c.powerOnOne(pod)
	case util < c.PowerOffBelow:
		c.powerOffOne(pod)
	}
}

// powerOnOne restores the lowest-numbered powered-off server of the
// pod. The choice must be deterministic (not map iteration order) so
// identically seeded runs reproduce byte-for-byte. A server somewhere in
// the failure lifecycle stays off: its capacity belongs to the fault
// snapshot until repair (audit I3.DETECTED_ZEROED, I3.SNAPSHOT_EXACT).
func (c *Consolidator) powerOnOne(pod cluster.PodID) {
	pick := cluster.ServerID(-1)
	for id := range c.off {
		srv := c.p.Cluster.Server(id)
		if srv == nil || srv.Pod != pod || !srv.Serving() {
			continue
		}
		if pick < 0 || id < pick {
			pick = id
		}
	}
	if pick < 0 {
		return
	}
	c.p.Cluster.Server(pick).Capacity = c.off[pick]
	delete(c.off, pick)
	c.PowerOns++
}

// powerOffOne vacates and powers off the least-loaded powered-on server
// of the pod, if its VMs fit elsewhere without breaching PackCeiling and
// at least one other powered-on server remains. Failed servers are not
// candidates, for the same reason powerOnOne skips them.
func (c *Consolidator) powerOffOne(pod cluster.PodID) {
	pd := c.p.Cluster.Pod(pod)
	if pd == nil {
		return
	}
	var candidate *cluster.Server
	on := 0
	for _, sid := range pd.ServerIDs() {
		srv := c.p.Cluster.Server(sid)
		if srv.Capacity.IsZero() || !srv.Serving() {
			continue
		}
		on++
		if candidate == nil || srv.Used().CPU < candidate.Used().CPU {
			candidate = srv
		}
	}
	if candidate == nil || on <= 1 {
		return
	}
	if err := c.vacate(pod, candidate); err != nil {
		return // could not fully vacate; leave it on
	}
	c.off[candidate.ID] = candidate.Capacity
	candidate.Capacity = cluster.Resources{}
	c.PowerOffs++
}

// vacate migrates every VM off the server to other powered-on servers in
// the same pod, respecting the pack ceiling.
func (c *Consolidator) vacate(pod cluster.PodID, srv *cluster.Server) error {
	pd := c.p.Cluster.Pod(pod)
	// A copy, not the view: each migration removes the VM from the
	// server's list.
	for _, vmID := range srv.VMIDs() {
		vm := c.p.Cluster.VM(vmID)
		dst := cluster.ServerID(-1)
		var dstFree float64
		for _, sid := range pd.ServerIDs() {
			if sid == srv.ID {
				continue
			}
			s := c.p.Cluster.Server(sid)
			if s.Capacity.IsZero() {
				continue
			}
			after := s.Used().Add(vm.Slice)
			if !after.Fits(s.Capacity.Scale(c.PackCeiling)) {
				continue
			}
			if dst == cluster.ServerID(-1) || s.Free().CPU > dstFree {
				dst, dstFree = sid, s.Free().CPU
			}
		}
		if dst == cluster.ServerID(-1) {
			return fmt.Errorf("energy: no room to vacate vm %d", vmID)
		}
		if err := c.p.Cluster.MigrateVM(vmID, dst); err != nil {
			return err
		}
		c.Migrations++
	}
	return nil
}

// Attach schedules the consolidator and the meter on the platform's
// engine: consolidation every interval seconds, metering every
// sampleEvery seconds, both until the engine stops being driven.
func (c *Consolidator) Attach(meter *Meter, interval, sampleEvery float64) {
	c.p.Eng.Every(interval, interval, func() bool {
		c.Step()
		return true
	})
	c.p.Eng.Every(0, sampleEvery, func() bool {
		meter.Sample()
		return true
	})
}
