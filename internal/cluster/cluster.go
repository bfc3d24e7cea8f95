package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"

	"megadc/internal/health"
	"megadc/internal/ids"
)

// Identifier types. Distinct types prevent accidentally mixing ID spaces.
type (
	// ServerID identifies a physical server.
	ServerID int32
	// VMID identifies a virtual machine instance.
	VMID int32
	// AppID identifies a hosted application (roughly, a website).
	AppID int32
	// PodID identifies a logical server pod.
	PodID int32
)

// NoPod is the PodID of a server not assigned to any pod.
const NoPod PodID = -1

// VMState is the lifecycle state of a VM instance.
type VMState uint8

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
	vms  []VMID // ascending
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

// VMIDs returns a copy of the IDs of VMs on the server in ascending
// order, safe to range over while the loop places, migrates or removes
// VMs.
func (s *Server) VMIDs() []VMID { return slices.Clone(s.vms) }

// VMIDsView returns the IDs of VMs on the server in ascending order as
// a read-only view of the membership slice — no copy, for
// allocation-free scans. The caller must not mutate it or hold it
// across membership changes; Cluster.VM resolves each ID.
func (s *Server) VMIDsView() []VMID { return s.vms }

// VM is a virtual machine instance of one application, holding a hard
// resource slice on one server. The cluster stores VMs by value in its
// VM table, so VM holds no pointer (TestVMTablePointerFree). The three
// 32-bit IDs and the one-byte state pack into the first 16 bytes, so a
// record is exactly 64 bytes and, in its 64-byte-aligned chunk, one
// cache line (TestVMRecordLayout).
type VM struct {
	ID     VMID
	App    AppID
	Server ServerID
	State  VMState
	Slice  Resources // hard allocation; can be hot-resized
	Demand Resources // current client demand routed to this VM
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
	vms          []VMID    // ascending
}

// NumInstances returns the number of live (non-stopped) VM instances.
func (a *Application) NumInstances() int { return len(a.vms) }

// VMIDs returns the application's instance IDs in ascending order.
func (a *Application) VMIDs() []VMID { return slices.Clone(a.vms) }

// VMIDsView returns the application's instance IDs in ascending order as
// a read-only view of the membership slice — no copy, for
// allocation-free scans. The caller must not mutate it or hold it
// across membership changes; Cluster.VM resolves each ID.
func (a *Application) VMIDsView() []VMID { return a.vms }

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
// needs no sort. A VM list holds IDs, one integer per member and
// nothing for GC to scan; Cluster.VM resolves an ID in the VM table.
// IDs are assigned in increasing order, so creation appends; moves and
// removals binary-search their position.

// member is an entry of a membership list, ordered by key (its ID).
type member interface{ key() int }

func (s *Server) key() int { return int(s.ID) }
func (id VMID) key() int   { return int(id) }

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
// registries are flat tables indexed by ID instead of maps: every
// lookup on the demand-propagation hot path is an index, and ID-ordered
// iteration needs no sort (DESIGN.md §13).
//
// VMs are stored by value in fixed-size chunks: VM id is record
// id%vmChunk of chunk id/vmChunk. A chunk never moves once allocated,
// so the *VM that VM returns stays valid for the cluster's lifetime,
// across later placements too, and records hold no pointer, so GC has
// nothing to scan in the table. A removed VM leaves its record as a
// tombstone in VMStopped state. Whether an ID is live is kept apart, in
// the dense live table, so a liveness check does not touch the record.
// Chunks are slices of length vmChunk rather than pointers to arrays:
// indexing through a nil-checkable array pointer would touch the
// chunk's first page on every lookup.
type Cluster struct {
	pods    []*Pod
	servers []*Server
	apps    []*Application

	vmChunks [][]VM
	live     []bool // indexed by VMID, one entry per ID assigned: placed and not removed
	numVMs   int    // true entries in live

	// Room set aside for records and lists not yet created:
	// ReserveServers sets aside server records, which AddServer takes,
	// and Reserve application records and VM lists, which AddApp takes.
	spareServers ids.Spare[Server]
	spareApps    ids.Spare[Application]
	spareVMs     ids.Spare[VMID]

	// OnVMChange, when set, is called after every change to a VM that
	// can move the serving capacity behind it: Start, RemoveVM, ResizeVM
	// and MigrateVM (the VM's state, slice or host server). The platform
	// uses it to invalidate its memoized per-switch backend capacity.
	OnVMChange func(vm *VM)

	// podGen moves whenever a server changes pod (TransferServer), so a
	// derivation of which pod each VM is in stays valid while it holds.
	podGen uint64
}

// PodGen returns the pod-membership generation: it changes whenever a
// server moves between pods, and on nothing else.
func (c *Cluster) PodGen() uint64 { return c.podGen }

// vmChunk is the number of VM records in one chunk of the VM table.
const vmChunk = 1024

// vmAt returns the record of VM id, live or a tombstone. id must have
// been assigned.
func (c *Cluster) vmAt(id VMID) *VM {
	u := uint(id)
	return &c.vmChunks[u/vmChunk][u%vmChunk]
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
	s := c.spareServers.Next()
	*s = Server{ID: ServerID(len(c.servers)), Pod: NoPod, Capacity: capacity}
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
	a := c.spareApps.Next()
	*a = Application{ID: AppID(len(c.apps)), Name: name, DefaultSlice: defaultSlice, vms: c.spareVMs.Take()}
	c.apps = append(c.apps, a)
	return a
}

// ReserveServers readies the registry for n more servers: the next n
// AddServer calls fill room in the server table and take their records
// from one shared allocation instead of one each.
func (c *Cluster) ReserveServers(n int) {
	c.servers = slices.Grow(c.servers, n)
	c.spareServers = ids.NewSpare[Server](n, 1)
}

// Reserve readies the registries for a bulk build of apps applications
// with perApp instances each, spread perServer to a server: the app
// registry gets room for them, the VM table the chunks that hold them,
// every server's VM list room for perServer more, and each of the next
// apps applications AddApp creates its record and a VM list with room
// for perApp. The server lists, the application records and the
// application lists are each carved from one shared allocation, every
// list capacity-limited. Lists that outgrow their reservation regrow
// as usual, into an allocation of their own. Reserve changes no
// membership or order, only capacity: it spares the fills that follow
// from regrowing every list 0→1→2→4→… on the way to its final length.
func (c *Cluster) Reserve(apps, perApp, perServer int) {
	c.apps = slices.Grow(c.apps, apps)
	n := len(c.live) + apps*perApp
	c.live = slices.Grow(c.live, apps*perApp)
	for len(c.vmChunks)*vmChunk < n {
		c.vmChunks = append(c.vmChunks, make([]VM, vmChunk))
	}
	total := 0
	for _, s := range c.servers {
		total += len(s.vms) + perServer
	}
	room := make([]VMID, total)
	for _, s := range c.servers {
		k := len(s.vms) + perServer
		s.vms, room = append(room[:0:k], s.vms...), room[k:]
	}
	c.spareApps = ids.NewSpare[Application](apps, 1)
	c.spareVMs = ids.NewSpare[VMID](apps, perApp)
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

// VM returns the VM with the given ID, or nil if it was never placed or
// has been removed. The pointer stays valid for the cluster's lifetime;
// after a RemoveVM it reads the VM's final state, VMStopped.
func (c *Cluster) VM(id VMID) *VM {
	if uint(id) >= uint(len(c.live)) || !c.live[id] {
		return nil
	}
	return c.vmAt(id)
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

// VMIDs returns all live VM IDs in ascending order.
func (c *Cluster) VMIDs() []VMID {
	ids := make([]VMID, 0, c.numVMs)
	for id, live := range c.live {
		if live {
			ids = append(ids, VMID(id))
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
	id := VMID(len(c.live))
	if len(c.live) == len(c.vmChunks)*vmChunk {
		c.vmChunks = append(c.vmChunks, make([]VM, vmChunk))
	}
	c.live = append(c.live, true)
	c.numVMs++
	v := c.vmAt(id)
	*v = VM{ID: id, App: app, Server: server, Slice: slice, State: VMDeploying}
	a.vms = append(a.vms, id) // newest ID: both lists stay ascending
	s.vms = append(s.vms, id)
	s.used = s.used.Add(slice)
	return v, nil
}

// PlaceRange places and starts apps×perApp VMs as one range fill, spread
// over up to workers goroutines. Instance k (0 ≤ k < apps×perApp) becomes
// VM base+k, base being the next VM ID, an instance of app
// firstApp+k/perApp on servers[k%len(servers)] with the given slice,
// running. servers must be distinct and ascending.
//
// The result is exactly the state the same sequence of PlaceVM and Start
// calls builds: records, liveness, NumVMs, every list in ascending VM
// order and every server's used, summed in that order. The fill is
// bit-identical for any worker count: workers write disjoint records,
// whole application lists and whole servers. Unlike Start it fires no
// OnVMChange: a VM placed here has no RIP binding yet, so no switch's
// backend capacity can count it.
//
// Every check runs before anything is written, so a failed fill changes
// nothing. Apps and servers must exist and the slice must be
// non-negative; when a server would run out of capacity, the error names
// the lowest failing instance and wraps ErrInsufficient, as the PlaceVM
// sequence would have failed there first.
func (c *Cluster) PlaceRange(firstApp AppID, apps, perApp int, servers []ServerID, slice Resources, workers int) (base VMID, err error) {
	base = VMID(len(c.live))
	if apps <= 0 || perApp <= 0 {
		return base, nil
	}
	if c.App(firstApp) == nil || c.App(firstApp+AppID(apps-1)) == nil {
		return base, fmt.Errorf("%w: apps %d..%d", ErrNotFound, firstApp, int(firstApp)+apps-1)
	}
	if len(servers) == 0 {
		return base, fmt.Errorf("%w: no servers to place on", ErrBadState)
	}
	for i, id := range servers {
		if c.Server(id) == nil {
			return base, fmt.Errorf("%w: server %d", ErrNotFound, id)
		}
		if i > 0 && servers[i-1] >= id {
			return base, fmt.Errorf("%w: servers not ascending at %d", ErrBadState, id)
		}
	}
	if !slice.NonNegative() {
		return base, fmt.Errorf("%w: negative slice %v", ErrBadState, slice)
	}
	n := apps * perApp
	stride := len(servers)

	// Capacity, server by server in ascending VM order, as the PlaceVM
	// sequence checks it. Each shard keeps its lowest failing instance.
	failed := make([]int, max(workers, 1))
	for w := range failed {
		failed[w] = n
	}
	shardRange(len(servers), workers, func(w, lo, hi int) {
		for i := lo; i < hi; i++ {
			s := c.servers[servers[i]]
			used := s.used
			for k := i; k < n && k < failed[w]; k += stride {
				if used = used.Add(slice); !used.Fits(s.Capacity) {
					failed[w] = k
					break
				}
			}
		}
	})
	if k := slices.Min(failed); k < n {
		s := c.servers[servers[k%stride]]
		used := s.used
		for j := k % stride; j < k; j += stride {
			used = used.Add(slice)
		}
		return base, fmt.Errorf("%w: instance %d (vm %d) on server %d free %v, slice %v",
			ErrInsufficient, k, int(base)+k, s.ID, s.Capacity.Sub(used), slice)
	}

	for len(c.vmChunks)*vmChunk < int(base)+n {
		c.vmChunks = append(c.vmChunks, make([]VM, vmChunk))
	}
	c.live = slices.Grow(c.live, n)[:int(base)+n]
	c.numVMs += n

	// Fill: workers take contiguous ranges of applications (their VMs'
	// records and liveness, their lists), then of servers (their lists
	// and used).
	shardRange(apps, workers, func(_, lo, hi int) {
		for ai := lo; ai < hi; ai++ {
			a := c.apps[int(firstApp)+ai]
			for k := ai * perApp; k < (ai+1)*perApp; k++ {
				id := base + VMID(k)
				*c.vmAt(id) = VM{ID: id, App: a.ID, Server: servers[k%stride], Slice: slice, State: VMRunning}
				c.live[id] = true
				a.vms = append(a.vms, id)
			}
		}
	})
	shardRange(len(servers), workers, func(_, lo, hi int) {
		for i := lo; i < hi; i++ {
			s := c.servers[servers[i]]
			for k := i; k < n; k += stride {
				s.vms = append(s.vms, base+VMID(k))
				s.used = s.used.Add(slice)
			}
		}
	})
	return base, nil
}

// shardRange splits [0, n) into at most workers contiguous ranges, runs
// fn on each in its own goroutine (w numbers the range) and waits for
// all of them.
func shardRange(n, workers int, fn func(w, lo, hi int)) {
	workers = max(workers, 1)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers && w*chunk < n; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			fn(w, w*chunk, min((w+1)*chunk, n))
		}()
	}
	wg.Wait()
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
// never reused; its record stays behind as a tombstone in VMStopped
// state.
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
	c.live[vm] = false
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
	dst.vms = insertMember(dst.vms, vm)
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
	c.podGen++
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
		for _, id := range s.vms {
			d = d.Add(c.vmAt(id).Demand)
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
	for _, id := range a.vms {
		if c.servers[c.vmAt(id).Server].Pod == pod {
			ids = append(ids, id)
		}
	}
	return ids
}

// Covers reports whether app has at least one instance in pod.
func (c *Cluster) Covers(app AppID, pod PodID) bool {
	a := c.App(app)
	return a != nil && slices.ContainsFunc(a.vms, func(id VMID) bool { return c.servers[c.vmAt(id).Server].Pod == pod })
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
// list is strictly ascending by ID, all indexes agree, and the live
// table marks exactly the listed VMs while every other assigned ID is a
// VMStopped tombstone. It returns the first violation found, or nil.
// Tests and the simulation harness call this after mutation sequences.
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
		for j, vid := range s.vms {
			if j > 0 && s.vms[j-1] >= vid {
				return fmt.Errorf("server %d VM list not strictly ascending at vm %d", id, vid)
			}
			v := c.VM(vid)
			if v == nil {
				return fmt.Errorf("server %d lists vm %d which is not live", id, vid)
			}
			if v.Server != id {
				return fmt.Errorf("vm %d on server %d claims server %d", vid, id, v.Server)
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
		for j, vid := range a.vms {
			if j > 0 && a.vms[j-1] >= vid {
				return fmt.Errorf("app %d VM list not strictly ascending at vm %d", a.ID, vid)
			}
			if v := c.VM(vid); v == nil || v.App != a.ID {
				return fmt.Errorf("app %d lists vm %d which does not belong to it", a.ID, vid)
			}
		}
	}
	nLive := 0
	for i, live := range c.live {
		vid := VMID(i)
		v := c.vmAt(vid)
		if v.ID != vid {
			return fmt.Errorf("vm table slot %d holds vm %d", i, v.ID)
		}
		if !live {
			if v.State != VMStopped {
				return fmt.Errorf("removed vm %d is %v, want %v", vid, v.State, VMStopped)
			}
			continue // removed VM; its ID is retired, never reused
		}
		nLive++
		if v.State == VMStopped {
			return fmt.Errorf("live vm %d is %v", vid, v.State)
		}
		if a := c.App(v.App); a == nil || !has(a.vms, i) {
			return fmt.Errorf("vm %d claims app %d but app does not list it", vid, v.App)
		}
		if s := c.Server(v.Server); s == nil || !has(s.vms, i) {
			return fmt.Errorf("vm %d claims server %d but server does not list it", vid, v.Server)
		}
	}
	if c.numVMs != nLive {
		return fmt.Errorf("cluster counts %d live VMs, live table marks %d", c.numVMs, nLive)
	}
	return nil
}
