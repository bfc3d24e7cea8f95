package viprip

import (
	"testing"

	"megadc/internal/lbswitch"
)

// newHierManager builds a manager over nSwitches small switches for the
// hierarchy to place through.
func newHierManager(t *testing.T, nSwitches int) *Manager {
	t.Helper()
	fab := lbswitch.NewFabric()
	for i := 0; i < nSwitches; i++ {
		fab.AddSwitch(lbswitch.Limits{MaxVIPs: 8, MaxRIPs: 32, ThroughputMbps: 1000, MaxConns: 100, MaxPPS: 1000})
	}
	vp, err := NewIPPool("100.64.0.0", 1024)
	if err != nil {
		t.Fatal(err)
	}
	return NewManager(fab, vp, nil)
}

func TestHierarchyValidation(t *testing.T) {
	m := newHierManager(t, 4)
	if _, err := NewHierarchy(m, 0); err == nil {
		t.Error("zero pods accepted")
	}
	if _, err := NewHierarchy(m, 5); err == nil {
		t.Error("more pods than switches accepted")
	}
	h, err := NewHierarchy(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	if h.NumPods() != 2 {
		t.Errorf("NumPods = %d", h.NumPods())
	}
	sizes := h.PodSizes()
	if sizes[0] != 2 || sizes[1] != 2 {
		t.Errorf("PodSizes = %v", sizes)
	}
	if err := h.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestHierarchyAllocatesAndBalances(t *testing.T) {
	m := newHierManager(t, 8)
	h, err := NewHierarchy(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[lbswitch.SwitchID]int)
	for i := 0; i < 32; i++ {
		_, sw, err := h.AddVIP(1)
		if err != nil {
			t.Fatalf("AddVIP %d: %v", i, err)
		}
		counts[sw]++
	}
	// 32 VIPs over 8 switches → 4 each (pods and least-vips both even).
	for id, n := range counts {
		if n != 4 {
			t.Errorf("switch %d got %d VIPs (counts %v)", id, n, counts)
		}
	}
	if err := m.Fabric().CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestHierarchyScansFewerSwitches(t *testing.T) {
	// Flat scan would touch nSwitches per allocation; the hierarchy only
	// the chosen pod's size.
	m := newHierManager(t, 16)
	h, err := NewHierarchy(m, 4)
	if err != nil {
		t.Fatal(err)
	}
	const n = 40
	for i := 0; i < n; i++ {
		if _, _, err := h.AddVIP(1); err != nil {
			t.Fatal(err)
		}
	}
	flatScans := int64(n * 16)
	if h.Scans >= flatScans {
		t.Errorf("hierarchy scanned %d, flat would scan %d", h.Scans, flatScans)
	}
	if h.Scans != int64(n*4) {
		t.Errorf("scans = %d, want %d (pod size per allocation)", h.Scans, n*4)
	}
}

func TestHierarchyExhaustion(t *testing.T) {
	m := newHierManager(t, 2)
	h, err := NewHierarchy(m, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 16; i++ { // 2 switches × 8 VIPs
		if _, _, err := h.AddVIP(1); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := h.AddVIP(1); err != ErrNoSwitch {
		t.Errorf("err = %v, want ErrNoSwitch", err)
	}
}

func TestHierarchyPodOf(t *testing.T) {
	m := newHierManager(t, 4)
	h, _ := NewHierarchy(m, 2)
	if pod, ok := h.PodOf(0); !ok || pod != 0 {
		t.Errorf("PodOf(0) = %d,%v", pod, ok)
	}
	if _, ok := h.PodOf(99); ok {
		t.Error("PodOf(99) found")
	}
}
