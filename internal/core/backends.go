package core

import (
	"megadc/internal/cluster"
	"megadc/internal/ids"
	"megadc/internal/lbswitch"
)

// BackendScan computes the healthy backend serving capacity behind a
// switch: the summed CPU slices of the running VMs whose RIPs are
// configured under the switch's VIPs, skipping VMs on non-serving
// servers. The request engine (internal/requests) derives each switch
// queue's service rate from this number, so a pod failure or a drain
// visibly slows the queue instead of silently vanishing from the model.
//
// The result is memoized per switch on the platform (DESIGN.md §21).
// An entry stays valid while two generations still equal the ones it
// was computed at:
//
//   - the switch's own lbswitch.Switch.BackendGen, which moves on every
//     VIP/RIP add or remove and every RIP tag write;
//   - the platform's per-switch backend generation, which moves when a
//     backend VM starts, stops, resizes or migrates (cluster's
//     OnVMChange hook, routed vmHome → home switch), when a
//     RIP binding is recorded (bindRIP), and when a server enters or
//     leaves Healthy (FaultServer, RepairServer).
//
// Switch health is not part of the memo: SwitchCPU checks Serving live.
// Recomputation is the full scan in VIP insertion and RIP order, so a cached
// value is bit-identical to a fresh scan; audit invariant
// I3.BACKEND_CPU_CURRENT checks exactly that for every current entry.
//
// The scan reads each RIP group in place: refreshing capacity for every
// switch each control interval allocates nothing, which keeps the
// request engine off the allocator even at 10K switches.
type BackendScan struct {
	p *Platform
}

// backendEntry is one switch's memoized backend CPU and the two
// generations it was computed at (see BackendScan).
type backendEntry struct {
	cpu   float64
	swGen uint64 // lbswitch.Switch.BackendGen
	gen   uint64 // Platform.backendGen
	ok    bool
}

// current reports whether the entry still describes switch sw.
func (e *backendEntry) current(sw *lbswitch.Switch, gen uint64) bool {
	return e.ok && e.swGen == sw.BackendGen() && e.gen == gen
}

// NewBackendScan returns a scan bound to the platform.
func (p *Platform) NewBackendScan() *BackendScan { return &BackendScan{p: p} }

// SwitchCPU returns the healthy backend CPU (cores) behind switch id.
// A non-serving switch black-holes its traffic, so its capacity is 0
// regardless of backend health. The value comes from the platform's
// per-switch memo when neither generation moved since it was computed,
// and from a full scan otherwise.
func (bs *BackendScan) SwitchCPU(id lbswitch.SwitchID) float64 {
	p := bs.p
	sw := p.Fabric.Switch(id)
	if sw == nil || !sw.Serving() {
		return 0
	}
	e := &p.backendCPU[id]
	if gen := p.backendGen[id]; !e.current(sw, gen) {
		*e = backendEntry{cpu: bs.scan(sw), swGen: sw.BackendGen(), gen: gen, ok: true}
	}
	return e.cpu
}

// scan is the full, uncached walk behind SwitchCPU, ignoring the
// switch's own health. RIP entries resolve to VMs through the tag the
// platform stamps when it configures them; an untagged entry backs no
// VM.
func (bs *BackendScan) scan(sw *lbswitch.Switch) float64 {
	p := bs.p
	var cpu float64
	for i := 0; i < sw.NumVIPs(); i++ {
		g := sw.GroupAt(i)
		for j := 0; j < g.Len(); j++ {
			vm := p.Cluster.VM(vmOfTag(g.Tag(j)))
			if vm == nil || vm.State != cluster.VMRunning {
				continue
			}
			if srv := p.Cluster.Server(vm.Server); srv == nil || !srv.Serving() {
				continue
			}
			cpu += vm.Slice.CPU
		}
	}
	return cpu
}

// bumpBackend invalidates switch id's memoized backend CPU.
func (p *Platform) bumpBackend(id lbswitch.SwitchID) { p.backendGen[id]++ }

// bumpVMBackend invalidates the memo of the switch homing vm's VIP: the
// only switch whose backend CPU can count vm. A VM without a bound RIP
// backs no switch.
func (p *Platform) bumpVMBackend(vm cluster.VMID) {
	vi := p.vmHomeOf(vm)
	if vi == ids.None {
		return
	}
	if home, ok := p.Fabric.Home(vi); ok {
		p.bumpBackend(home)
	}
}
