package faults

import (
	"fmt"

	"megadc/internal/cluster"
	"megadc/internal/core"
	"megadc/internal/metrics"
)

// Monitor samples every application's served and offered CPU demand at
// a fixed interval into a metrics.Availability tracker, turning the
// black-holed demand the injector causes into downtime seconds,
// unserved-demand integrals, and time-to-recover percentiles.
type Monitor struct {
	p        *core.Platform
	interval float64

	// Avail is the tracker fed by the samples; read it after Finish.
	Avail *metrics.Availability

	// keys holds each app's availability key by AppID, formatted once
	// when a sample first sees the app.
	keys []string
}

// NewMonitor returns a monitor that marks an app down when it serves
// less than threshold (e.g. 0.95) of its demand, sampling every
// interval seconds.
func NewMonitor(p *core.Platform, threshold, interval float64) *Monitor {
	return &Monitor{p: p, interval: interval, Avail: metrics.NewAvailability(threshold)}
}

// Start begins sampling at the current simulated time and stops after
// stopAt (forever when stopAt <= 0).
func (m *Monitor) Start(stopAt float64) {
	m.p.Eng.Every(m.p.Eng.Now(), m.interval, func() bool {
		m.sample()
		return stopAt <= 0 || m.p.Eng.Now() < stopAt
	})
}

// Finish closes the availability integrals at the current simulated
// time. Call once after the run.
func (m *Monitor) Finish() {
	m.sample()
	m.Avail.Finalize(m.p.Eng.Now())
}

func (m *Monitor) sample() {
	t := m.p.Eng.Now()
	for app := len(m.keys); app < m.p.Cluster.NumApps(); app++ {
		m.keys = append(m.keys, fmt.Sprintf("app-%d", app))
	}
	for app, key := range m.keys {
		served, demand := m.p.AppServedDemand(cluster.AppID(app))
		m.Avail.Observe(key, t, served, demand)
	}
}
