package core

// Time-series sampling for traced runs (DESIGN.md §10). When Config.Trace
// carries a Timeseries, Start schedules TraceSample on a fixed period
// (Config.TraceSampleEvery, defaulting to the pod control interval) so a
// traced run produces a uniform-grid CSV/JSON export alongside the event
// ring. Untraced runs never schedule the sampler — there is no per-tick
// branch anywhere near the Propagate hot path.

import (
	"megadc/internal/lbswitch"
	"megadc/internal/trace"
)

// TraceSample appends one platform-wide observation to the recorder's
// time series. Safe to call directly (e.g. from tests or a custom
// harness loop) for off-grid samples; it is a no-op without a recorder
// or a time series.
func (p *Platform) TraceSample() {
	rec := p.Cfg.Trace
	if rec == nil || rec.TS == nil {
		return
	}
	s := trace.Sample{
		T:            p.Eng.Now(),
		Satisfaction: p.TotalSatisfaction(),
		VIPs:         p.Fabric.NumVIPs(),
		RIPs:         p.Fabric.NumRIPs(),
		QueueDepth:   p.VIPRIP.Pending(),
		FaultsActive: len(p.srvFaults.snap) + len(p.swFaults.snap) + len(p.linkFaults.snap),
		Violations:   p.lastAuditCount,
	}
	var n int
	for i := 0; i < p.Fabric.NumSwitches(); i++ {
		u := p.Fabric.Switch(lbswitch.SwitchID(i)).BottleneckUtilization()
		if u > s.SwitchUtilMax {
			s.SwitchUtilMax = u
		}
		s.SwitchUtilMean += u
		n++
	}
	if n > 0 {
		s.SwitchUtilMean /= float64(n)
	}
	n = 0
	for _, l := range p.Net.Links() {
		u := l.Utilization()
		if u > s.LinkUtilMax {
			s.LinkUtilMax = u
		}
		s.LinkUtilMean += u
		n++
	}
	if n > 0 {
		s.LinkUtilMean /= float64(n)
	}
	rec.TS.Add(s)
}
