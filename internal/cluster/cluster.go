package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"megadc/internal/health"
)

// Identifier types. Distinct types prevent accidentally mixing ID spaces.
type (
	// ServerID identifies a physical server.
	ServerID int
	// VMID identifies a virtual machine instance.
	VMID int
	// AppID identifies a hosted application (roughly, a website).
	AppID int
	// PodID identifies a logical server pod.
	PodID int
)

// NoPod is the PodID of a server not assigned to any pod.
const NoPod PodID = -1

// VMState is the lifecycle state of a VM instance.
type VMState int

// VM lifecycle states.
const (
	VMDeploying VMState = iota // being created; not yet serving
	VMRunning                  // serving traffic
	VMMigrating                // moving between servers; still serving (live migration)
	VMStopped                  // removed from service
)

func (s VMState) String() string {
	switch s {
	case VMDeploying:
		return "deploying"
	case VMRunning:
		return "running"
	case VMMigrating:
		return "migrating"
	case VMStopped:
		return "stopped"
	}
	return fmt.Sprintf("VMState(%d)", int(s))
}

// Server is a physical machine with hard resource capacity.
type Server struct {
	ID       ServerID
	Pod      PodID
	Capacity Resources

	// Health tracks the failure/repair lifecycle. It is orthogonal to
	// energy state: a consolidator-powered-off server is Healthy with
	// zero capacity, while a failed server keeps its capacity until the
	// failure is detected.
	Health health.State

	used Resources
	vms  []*VM // ascending by ID
}

// Serving reports whether the server is healthy enough to host work.
func (s *Server) Serving() bool { return s.Health.Serving() }

// Used returns the sum of slices of VMs currently placed on the server.
func (s *Server) Used() Resources { return s.used }

// Free returns the remaining capacity.
func (s *Server) Free() Resources { return s.Capacity.Sub(s.used) }

// Utilization returns the maximum dimension-wise used/capacity fraction.
func (s *Server) Utilization() float64 { return s.used.MaxFraction(s.Capacity) }

// NumVMs returns the number of VMs placed on the server.
func (s *Server) NumVMs() int { return len(s.vms) }

// VMIDs returns the IDs of VMs on the server in ascending order.
func (s *Server) VMIDs() []VMID { return vmIDsOf(s.vms) }

// VMs returns the server's VMs in ascending ID order as a read-only
// view of the membership slice — no copy, for allocation-free scans.
// The caller must not mutate it or hold it across membership changes.
func (s *Server) VMs() []*VM { return s.vms }

// VM is a virtual machine instance of one application, holding a hard
// resource slice on one server.
type VM struct {
	ID     VMID
	App    AppID
	Server ServerID
	Slice  Resources // hard allocation; can be hot-resized
	Demand Resources // current client demand routed to this VM
	State  VMState
}

// Served returns the demand actually satisfied: the component-wise minimum
// of demand and slice. A VM that is not running serves nothing.
func (v *VM) Served() Resources {
	if v.State != VMRunning && v.State != VMMigrating {
		return Resources{}
	}
	return v.Demand.Min(v.Slice)
}

// Overload returns how far demand exceeds the slice in the most-stressed
// dimension (≥ 1 means overloaded).
func (v *VM) Overload() float64 { return v.Demand.MaxFraction(v.Slice) }

// Application is a hosted elastic Internet application ("website").
type Application struct {
	ID           AppID
	Name         string
	DefaultSlice Resources // slice given to a new instance
	vms          []*VM     // ascending by ID
}

// NumInstances returns the number of live (non-stopped) VM instances.
func (a *Application) NumInstances() int { return len(a.vms) }

// VMIDs returns the application's instance IDs in ascending order.
func (a *Application) VMIDs() []VMID { return vmIDsOf(a.vms) }

// Pod is a logical group of servers managed by one pod manager. Pods are
// formed by configuration, not physical adjacency, so servers can be
// transferred between pods (paper Section IV-C).
type Pod struct {
	ID      PodID
	servers []*Server // ascending by ID
}

// NumServers returns the number of servers in the pod.
func (p *Pod) NumServers() int { return len(p.servers) }

// ServerIDs returns the pod's server IDs in ascending order.
func (p *Pod) ServerIDs() []ServerID {
	ids := make([]ServerID, len(p.servers))
	for i, s := range p.servers {
		ids[i] = s.ID
	}
	return ids
}

// Servers returns the pod's servers in ascending ID order as a read-only
// view of the membership slice — no copy, for allocation-free scans.
// The caller must not mutate it or hold it across membership changes.
func (p *Pod) Servers() []*Server { return p.servers }

// Membership lists (Pod.servers, Server.vms, Application.vms) are
// slices kept ascending by ID rather than maps: ID-ordered iteration —
// which every float aggregate needs for run-to-run determinism — then
// needs no sort, and a list costs one pointer per member. IDs are
// assigned in increasing order, so creation appends; moves and removals
// binary-search their position.

func vmIDsOf(vms []*VM) []VMID {
	ids := make([]VMID, len(vms))
	for i, v := range vms {
		ids[i] = v.ID
	}
	return ids
}

// member is an entry of a membership list, ordered by key (its ID).
type member interface{ key() int }

func (s *Server) key() int { return int(s.ID) }
func (v *VM) key() int     { return int(v.ID) }

// search finds key in the ascending list.
func search[T member](list []T, key int) (int, bool) {
	return slices.BinarySearchFunc(list, key, func(m T, k int) int { return cmp.Compare(m.key(), k) })
}

func has[T member](list []T, key int) bool {
	_, ok := search(list, key)
	return ok
}

// insertMember adds m to the ascending list.
func insertMember[T member](list []T, m T) []T {
	i, _ := search(list, m.key())
	return slices.Insert(list, i, m)
}

// removeMember removes the entry with the given key from the ascending list.
func removeMember[T member](list []T, key int) []T {
	if i, ok := search(list, key); ok {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// Errors returned by cluster mutations.
var (
	ErrNotFound     = errors.New("cluster: not found")
	ErrInsufficient = errors.New("cluster: insufficient capacity")
	ErrBadState     = errors.New("cluster: operation invalid in current state")
)

// Cluster is the registry of pods, servers, applications, and VMs, and the
// home of all state-mutating primitives. Higher layers (pod managers, the
// global manager) sequence these primitives and attach latencies.
//
// IDs are assigned densely in creation order and never reused, so the
// registries are flat slices indexed by ID (nil = removed) instead of
// maps: every lookup on the demand-propagation hot path is a slice
// index, and ID-ordered iteration needs no sort (DESIGN.md §13).
type Cluster struct {
	pods    []*Pod
	servers []*Server
	apps    []*Application
	vms     []*VM

	numVMs int // live (non-nil) entries in vms

	// spareVMs is room set aside by Reserve for the VM lists of
	// applications not yet created: AddApp hands each new application
	// the next spareCap slots as an empty list of that capacity.
	spareVMs []*VM
	spareCap int

	// OnVMChange, when set, is called after every change to a VM that
	// can move the serving capacity behind it: Start, RemoveVM, ResizeVM
	// and MigrateVM (the VM's state, slice or host server). The platform
	// uses it to invalidate its memoized per-switch backend capacity.
	OnVMChange func(vm *VM)
}

// vmChanged fires the OnVMChange hook.
func (c *Cluster) vmChanged(v *VM) {
	if c.OnVMChange != nil {
		c.OnVMChange(v)
	}
}

// New returns an empty cluster.
func New() *Cluster {
	return &Cluster{}
}

// AddPod creates a new empty pod.
func (c *Cluster) AddPod() *Pod {
	p := &Pod{ID: PodID(len(c.pods))}
	c.pods = append(c.pods, p)
	return p
}

// AddServer creates a server with the given capacity inside pod. Pass
// NoPod to create an unassigned server.
func (c *Cluster) AddServer(pod PodID, capacity Resources) (*Server, error) {
	if !capacity.NonNegative() {
		return nil, fmt.Errorf("%w: negative capacity %v", ErrBadState, capacity)
	}
	s := &Server{ID: ServerID(len(c.servers)), Pod: NoPod, Capacity: capacity}
	if pod != NoPod {
		p := c.Pod(pod)
		if p == nil {
			return nil, fmt.Errorf("%w: pod %d", ErrNotFound, pod)
		}
		s.Pod = pod
		p.servers = append(p.servers, s) // newest ID: stays ascending
	}
	c.servers = append(c.servers, s)
	return s, nil
}

// AddApp registers an application with a default per-instance slice.
func (c *Cluster) AddApp(name string, defaultSlice Resources) *Application {
	a := &Application{ID: AppID(len(c.apps)), Name: name, DefaultSlice: defaultSlice}
	if n := c.spareCap; n > 0 && len(c.spareVMs) >= n {
		a.vms, c.spareVMs = c.spareVMs[:0:n], c.spareVMs[n:]
	}
	c.apps = append(c.apps, a)
	return a
}

// Reserve readies the registries for a bulk build of apps applications
// with perApp instances each, spread perServer to a server: the app and
// VM registries get room for them, every server's VM list room for
// perServer more, and each of the next apps applications AddApp creates
// a VM list with room for perApp (carved from one shared allocation).
// Lists that outgrow their reservation regrow as usual. Reserve changes
// no membership or order, only capacity: it spares the fills that follow
// from regrowing every list 0→1→2→4→… on the way to its final length.
func (c *Cluster) Reserve(apps, perApp, perServer int) {
	c.apps = slices.Grow(c.apps, apps)
	c.vms = slices.Grow(c.vms, apps*perApp)
	for _, s := range c.servers {
		s.vms = slices.Grow(s.vms, perServer)
	}
	c.spareVMs, c.spareCap = make([]*VM, apps*perApp), perApp
}

// Pod returns the pod with the given ID, or nil.
func (c *Cluster) Pod(id PodID) *Pod {
	if id < 0 || int(id) >= len(c.pods) {
		return nil
	}
	return c.pods[id]
}

// Server returns the server with the given ID, or nil.
func (c *Cluster) Server(id ServerID) *Server {
	if id < 0 || int(id) >= len(c.servers) {
		return nil
	}
	return c.servers[id]
}

// App returns the application with the given ID, or nil.
func (c *Cluster) App(id AppID) *Application {
	if id < 0 || int(id) >= len(c.apps) {
		return nil
	}
	return c.apps[id]
}

// VM returns the VM with the given ID, or nil.
func (c *Cluster) VM(id VMID) *VM {
	if id < 0 || int(id) >= len(c.vms) {
		return nil
	}
	return c.vms[id]
}

// NumApps returns the number of registered applications.
func (c *Cluster) NumApps() int { return len(c.apps) }

// NumServers returns the number of servers in the cluster.
func (c *Cluster) NumServers() int { return len(c.servers) }

// PodIDs returns all pod IDs in ascending order.
func (c *Cluster) PodIDs() []PodID {
	ids := make([]PodID, 0, len(c.pods))
	for _, p := range c.pods {
		if p != nil {
			ids = append(ids, p.ID)
		}
	}
	return ids
}

// AppIDs returns all application IDs in ascending order.
func (c *Cluster) AppIDs() []AppID {
	ids := make([]AppID, 0, len(c.apps))
	for _, a := range c.apps {
		if a != nil {
			ids = append(ids, a.ID)
		}
	}
	return ids
}

// ServerIDs returns all server IDs in ascending order.
func (c *Cluster) ServerIDs() []ServerID {
	ids := make([]ServerID, 0, len(c.servers))
	for _, s := range c.servers {
		if s != nil {
			ids = append(ids, s.ID)
		}
	}
	return ids
}

// VMIDs returns all VM IDs in ascending order.
func (c *Cluster) VMIDs() []VMID {
	ids := make([]VMID, 0, c.numVMs)
	for _, v := range c.vms {
		if v != nil {
			ids = append(ids, v.ID)
		}
	}
	return ids
}

// NumVMs returns the number of live VMs in the cluster.
func (c *Cluster) NumVMs() int { return c.numVMs }

// PlaceVM creates a VM instance of app on server with the given slice.
// The new VM starts in VMDeploying state; call Start to begin serving.
func (c *Cluster) PlaceVM(app AppID, server ServerID, slice Resources) (*VM, error) {
	a := c.App(app)
	if a == nil {
		return nil, fmt.Errorf("%w: app %d", ErrNotFound, app)
	}
	s := c.Server(server)
	if s == nil {
		return nil, fmt.Errorf("%w: server %d", ErrNotFound, server)
	}
	if !slice.NonNegative() {
		return nil, fmt.Errorf("%w: negative slice %v", ErrBadState, slice)
	}
	if !s.used.Add(slice).Fits(s.Capacity) {
		return nil, fmt.Errorf("%w: server %d free %v, slice %v", ErrInsufficient, server, s.Free(), slice)
	}
	v := &VM{ID: VMID(len(c.vms)), App: app, Server: server, Slice: slice, State: VMDeploying}
	c.vms = append(c.vms, v)
	c.numVMs++
	a.vms = append(a.vms, v) // newest ID: both lists stay ascending
	s.vms = append(s.vms, v)
	s.used = s.used.Add(slice)
	return v, nil
}

// Start transitions a deploying VM to running.
func (c *Cluster) Start(vm VMID) error {
	v := c.VM(vm)
	if v == nil {
		return fmt.Errorf("%w: vm %d", ErrNotFound, vm)
	}
	if v.State != VMDeploying && v.State != VMMigrating {
		return fmt.Errorf("%w: vm %d is %v", ErrBadState, vm, v.State)
	}
	v.State = VMRunning
	c.vmChanged(v)
	return nil
}

// RemoveVM stops and deletes a VM, releasing its slice. The VM's ID is
// never reused.
func (c *Cluster) RemoveVM(vm VMID) error {
	v := c.VM(vm)
	if v == nil {
		return fmt.Errorf("%w: vm %d", ErrNotFound, vm)
	}
	s := c.servers[v.Server]
	s.used = s.used.Sub(v.Slice)
	s.vms = removeMember(s.vms, int(vm))
	a := c.apps[v.App]
	a.vms = removeMember(a.vms, int(vm))
	c.vms[vm] = nil
	c.numVMs--
	v.State = VMStopped
	c.vmChanged(v)
	return nil
}

// ResizeVM hot-adjusts the VM's hard slice (paper knob E, Section IV-E).
// Growth must fit in the server's free capacity.
func (c *Cluster) ResizeVM(vm VMID, slice Resources) error {
	v := c.VM(vm)
	if v == nil {
		return fmt.Errorf("%w: vm %d", ErrNotFound, vm)
	}
	if !slice.NonNegative() {
		return fmt.Errorf("%w: negative slice %v", ErrBadState, slice)
	}
	s := c.servers[v.Server]
	newUsed := s.used.Sub(v.Slice).Add(slice)
	if !newUsed.Fits(s.Capacity) {
		return fmt.Errorf("%w: server %d cannot hold resize to %v", ErrInsufficient, v.Server, slice)
	}
	s.used = newUsed
	v.Slice = slice
	c.vmChanged(v)
	return nil
}

// MigrateVM moves a VM to another server, keeping its slice. The caller
// is responsible for modeling migration latency; the state change here is
// atomic. The VM keeps serving (live migration) and ends in VMRunning.
func (c *Cluster) MigrateVM(vm VMID, to ServerID) error {
	v := c.VM(vm)
	if v == nil {
		return fmt.Errorf("%w: vm %d", ErrNotFound, vm)
	}
	dst := c.Server(to)
	if dst == nil {
		return fmt.Errorf("%w: server %d", ErrNotFound, to)
	}
	if to == v.Server {
		return nil
	}
	if !dst.used.Add(v.Slice).Fits(dst.Capacity) {
		return fmt.Errorf("%w: server %d free %v, slice %v", ErrInsufficient, to, dst.Free(), v.Slice)
	}
	src := c.servers[v.Server]
	src.used = src.used.Sub(v.Slice)
	src.vms = removeMember(src.vms, int(vm))
	dst.used = dst.used.Add(v.Slice)
	dst.vms = insertMember(dst.vms, v)
	v.Server = to
	c.vmChanged(v)
	return nil
}

// TransferServer moves a server (and any VMs it hosts) to another pod.
// This is the paper's server-transfer knob (Section IV-C); transferring a
// loaded server is exactly the elephant-pod mitigation of Section IV-C/D.
func (c *Cluster) TransferServer(server ServerID, to PodID) error {
	s := c.Server(server)
	if s == nil {
		return fmt.Errorf("%w: server %d", ErrNotFound, server)
	}
	dst := c.Pod(to)
	if dst == nil {
		return fmt.Errorf("%w: pod %d", ErrNotFound, to)
	}
	if s.Pod == to {
		return nil
	}
	if src := c.Pod(s.Pod); src != nil {
		src.servers = removeMember(src.servers, int(server))
	}
	dst.servers = insertMember(dst.servers, s)
	s.Pod = to
	return nil
}

// PodUsed returns the summed used resources of the pod's servers.
// Aggregation iterates in ascending ID order: float sums must not
// depend on update history, or identically seeded runs diverge at the
// last bit.
func (c *Cluster) PodUsed(pod PodID) Resources {
	p := c.Pod(pod)
	if p == nil {
		return Resources{}
	}
	var u Resources
	for _, s := range p.servers {
		u = u.Add(s.used)
	}
	return u
}

// PodCapacity returns the summed capacity of the pod's servers.
func (c *Cluster) PodCapacity(pod PodID) Resources {
	p := c.Pod(pod)
	if p == nil {
		return Resources{}
	}
	var u Resources
	for _, s := range p.servers {
		u = u.Add(s.Capacity)
	}
	return u
}

// PodUtilization returns the pod's max-dimension utilization fraction.
func (c *Cluster) PodUtilization(pod PodID) float64 {
	return c.PodUsed(pod).MaxFraction(c.PodCapacity(pod))
}

// PodDemand returns the summed client demand on VMs hosted in the pod.
func (c *Cluster) PodDemand(pod PodID) Resources {
	p := c.Pod(pod)
	if p == nil {
		return Resources{}
	}
	var d Resources
	for _, s := range p.servers {
		for _, v := range s.vms {
			d = d.Add(v.Demand)
		}
	}
	return d
}

// PodNumVMs returns the number of VMs hosted in the pod.
func (c *Cluster) PodNumVMs(pod PodID) int {
	p := c.Pod(pod)
	if p == nil {
		return 0
	}
	n := 0
	for _, s := range p.servers {
		n += len(s.vms)
	}
	return n
}

// AppVMsInPod returns the IDs of app's VMs hosted in pod, ascending.
// An application "covers" a pod when this is non-empty (paper III-A).
func (c *Cluster) AppVMsInPod(app AppID, pod PodID) []VMID {
	a := c.App(app)
	if a == nil {
		return nil
	}
	var ids []VMID
	for _, v := range a.vms {
		if c.servers[v.Server].Pod == pod {
			ids = append(ids, v.ID)
		}
	}
	return ids
}

// Covers reports whether app has at least one instance in pod.
func (c *Cluster) Covers(app AppID, pod PodID) bool {
	a := c.App(app)
	return a != nil && slices.ContainsFunc(a.vms, func(v *VM) bool { return c.servers[v.Server].Pod == pod })
}

// approxEqual compares resource vectors with a relative tolerance that
// absorbs the floating-point drift of incremental add/subtract updates.
func approxEqual(a, b Resources) bool {
	close := func(x, y float64) bool {
		d := x - y
		if d < 0 {
			d = -d
		}
		scale := 1.0
		if ax := absf(x); ax > scale {
			scale = ax
		}
		return d <= 1e-9*scale
	}
	return close(a.CPU, b.CPU) && close(a.MemMB, b.MemMB) && close(a.NetMbps, b.NetMbps)
}

func epsilonOf(c Resources) Resources {
	return Resources{1e-9 * (1 + absf(c.CPU)), 1e-9 * (1 + absf(c.MemMB)), 1e-9 * (1 + absf(c.NetMbps))}
}

func absf(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// CheckInvariants verifies internal consistency: per-server used equals
// the sum of its VM slices and never exceeds capacity, every membership
// list is strictly ascending by ID, and all indexes agree. It returns
// the first violation found, or nil. Tests and the simulation harness
// call this after mutation sequences.
func (c *Cluster) CheckInvariants() error {
	for i, p := range c.pods {
		pid := PodID(i)
		for j, s := range p.servers {
			if j > 0 && p.servers[j-1].ID >= s.ID {
				return fmt.Errorf("pod %d server list not strictly ascending at server %d", pid, s.ID)
			}
			if s.Pod != pid {
				return fmt.Errorf("pod %d lists server %d which claims pod %d", pid, s.ID, s.Pod)
			}
		}
	}
	for i, s := range c.servers {
		id := ServerID(i)
		var sum Resources
		for j, v := range s.vms {
			if j > 0 && s.vms[j-1].ID >= v.ID {
				return fmt.Errorf("server %d VM list not strictly ascending at vm %d", id, v.ID)
			}
			if c.VM(v.ID) != v {
				return fmt.Errorf("server %d lists vm %d which is not registered", id, v.ID)
			}
			if v.Server != id {
				return fmt.Errorf("vm %d on server %d claims server %d", v.ID, id, v.Server)
			}
			sum = sum.Add(v.Slice)
		}
		if !approxEqual(sum, s.used) {
			return fmt.Errorf("server %d used %v != sum of slices %v", id, s.used, sum)
		}
		if !s.used.Fits(s.Capacity.Add(epsilonOf(s.Capacity))) {
			return fmt.Errorf("server %d overcommitted: used %v > capacity %v", id, s.used, s.Capacity)
		}
		if s.Pod != NoPod {
			if p := c.Pod(s.Pod); p == nil || !has(p.servers, int(id)) {
				return fmt.Errorf("server %d claims pod %d but pod does not list it", id, s.Pod)
			}
		}
	}
	for _, a := range c.apps {
		for j, v := range a.vms {
			if j > 0 && a.vms[j-1].ID >= v.ID {
				return fmt.Errorf("app %d VM list not strictly ascending at vm %d", a.ID, v.ID)
			}
			if v.App != a.ID || c.VM(v.ID) != v {
				return fmt.Errorf("app %d lists vm %d which does not belong to it", a.ID, v.ID)
			}
		}
	}
	for i, v := range c.vms {
		if v == nil {
			continue // removed VM; its ID is retired, never reused
		}
		vid := VMID(i)
		if a := c.App(v.App); a == nil || !has(a.vms, i) {
			return fmt.Errorf("vm %d claims app %d but app does not list it", vid, v.App)
		}
		if s := c.Server(v.Server); s == nil || !has(s.vms, i) {
			return fmt.Errorf("vm %d claims server %d but server does not list it", vid, v.Server)
		}
	}
	return nil
}
