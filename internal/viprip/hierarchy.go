package viprip

import (
	"fmt"

	"megadc/internal/cluster"
	"megadc/internal/lbswitch"
)

// Hierarchy implements the paper's Section V-A fallback for when global
// VIP allocation itself becomes a bottleneck: "divide LB switches into
// logical pods, each managed by its own LB switch pod manager. The
// global manager would allocate addresses to LB switch pods ... and also
// redistribute the switches among the switch pods to balance their size
// and hence the work of the switch pod managers."
//
// The hierarchy makes each allocation a two-level decision: O(pods) to
// pick a switch pod (by aggregate pressure), then the manager's own
// switch choice (its placement strategy) over that pod's
// switches alone — instead of scanning every switch. Scans counts
// switch examinations so experiments can report the work saved. The
// partition is fixed at construction; the switch redistribution the
// paper mentions is not modeled, since no experiment exercises it.
type Hierarchy struct {
	m *Manager

	pods  [][]lbswitch.SwitchID
	podOf map[lbswitch.SwitchID]int

	// Scans counts switches examined across all allocations.
	Scans int64
}

// NewHierarchy partitions the manager's switches into nPods switch pods
// (round-robin). Allocations choose the pod here and the switch within
// it through m.
func NewHierarchy(m *Manager, nPods int) (*Hierarchy, error) {
	if nPods <= 0 {
		return nil, fmt.Errorf("viprip: need at least one switch pod")
	}
	if m.fabric.NumSwitches() < nPods {
		return nil, fmt.Errorf("viprip: %d pods for %d switches", nPods, m.fabric.NumSwitches())
	}
	h := &Hierarchy{
		m:     m,
		pods:  make([][]lbswitch.SwitchID, nPods),
		podOf: make(map[lbswitch.SwitchID]int),
	}
	for i, sw := range m.fabric.Switches() {
		pod := i % nPods
		h.pods[pod] = append(h.pods[pod], sw.ID)
		h.podOf[sw.ID] = pod
	}
	return h, nil
}

// NumPods returns the number of switch pods.
func (h *Hierarchy) NumPods() int { return len(h.pods) }

// PodSizes returns the switch count of each pod.
func (h *Hierarchy) PodSizes() []int {
	out := make([]int, len(h.pods))
	for i, p := range h.pods {
		out[i] = len(p)
	}
	return out
}

// PodOf returns the switch pod a switch belongs to.
func (h *Hierarchy) PodOf(sw lbswitch.SwitchID) (int, bool) {
	p, ok := h.podOf[sw]
	return p, ok
}

// podPressure is a switch pod's aggregate allocation pressure: the mean
// of its switches' blend scores.
func (h *Hierarchy) podPressure(pod int) float64 {
	if len(h.pods[pod]) == 0 {
		return 1e18
	}
	var sum float64
	for _, id := range h.pods[pod] {
		sum += blendScore(h.m.fabric.Switch(id))
	}
	return sum / float64(len(h.pods[pod]))
}

// AddVIP allocates a VIP two-level: least-pressured switch pod first,
// then the manager's switch choice inside that pod, configured (and
// traced) through Manager.AddVIPOn. Only the chosen pod's switches are
// scanned.
func (h *Hierarchy) AddVIP(app cluster.AppID) (lbswitch.VIP, lbswitch.SwitchID, error) {
	// Level 1: pick the pod (O(pods), not counted as switch scans —
	// pressures are maintained by the pod managers in a real system).
	best := -1
	var bestP float64
	for pod := range h.pods {
		if !h.podHasRoom(pod) {
			continue
		}
		p := h.podPressure(pod)
		if best < 0 || p < bestP {
			best, bestP = pod, p
		}
	}
	if best < 0 {
		return 0, 0, ErrNoSwitch
	}
	// Level 2: the manager's choice among the pod's switches.
	h.Scans += int64(len(h.pods[best]))
	sw := h.m.pickSwitchForVIP(app, h.pods[best])
	if sw == nil {
		return 0, 0, ErrNoSwitch
	}
	vip, err := h.m.AddVIPOn(app, sw.ID)
	if err != nil {
		return 0, 0, err
	}
	return vip, sw.ID, nil
}

func (h *Hierarchy) podHasRoom(pod int) bool {
	for _, id := range h.pods[pod] {
		sw := h.m.fabric.Switch(id)
		if sw.NumVIPs() < sw.Limits.MaxVIPs {
			return true
		}
	}
	return false
}

// CheckInvariants verifies the pod partition: every switch in exactly
// one pod, the index consistent.
func (h *Hierarchy) CheckInvariants() error {
	seen := make(map[lbswitch.SwitchID]int)
	for pod, ids := range h.pods {
		for _, id := range ids {
			if prev, dup := seen[id]; dup {
				return fmt.Errorf("viprip: switch %d in pods %d and %d", id, prev, pod)
			}
			seen[id] = pod
			if h.podOf[id] != pod {
				return fmt.Errorf("viprip: switch %d podOf=%d but listed in %d", id, h.podOf[id], pod)
			}
		}
	}
	if len(seen) != h.m.fabric.NumSwitches() {
		return fmt.Errorf("viprip: %d switches partitioned, fabric has %d", len(seen), h.m.fabric.NumSwitches())
	}
	return nil
}
