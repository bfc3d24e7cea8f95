package cluster

import (
	"cmp"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func testSlice() Resources  { return Resources{CPU: 1, MemMB: 1024, NetMbps: 100} }
func testServer() Resources { return Resources{CPU: 8, MemMB: 16384, NetMbps: 1000} }

// buildSmall creates 2 pods × 2 servers and one app, returning all parts.
func buildSmall(t *testing.T) (*Cluster, []*Pod, []*Server, *Application) {
	t.Helper()
	c := New()
	var pods []*Pod
	var servers []*Server
	for i := 0; i < 2; i++ {
		p := c.AddPod()
		pods = append(pods, p)
		for j := 0; j < 2; j++ {
			s, err := c.AddServer(p.ID, testServer())
			if err != nil {
				t.Fatalf("AddServer: %v", err)
			}
			servers = append(servers, s)
		}
	}
	app := c.AddApp("foo.com", testSlice())
	return c, pods, servers, app
}

func TestResourcesArithmetic(t *testing.T) {
	a := Resources{1, 2, 3}
	b := Resources{4, 5, 6}
	if got := a.Add(b); got != (Resources{5, 7, 9}) {
		t.Errorf("Add = %v", got)
	}
	if got := b.Sub(a); got != (Resources{3, 3, 3}) {
		t.Errorf("Sub = %v", got)
	}
	if got := a.Scale(2); got != (Resources{2, 4, 6}) {
		t.Errorf("Scale = %v", got)
	}
	if got := a.Min(Resources{0.5, 10, 3}); got != (Resources{0.5, 2, 3}) {
		t.Errorf("Min = %v", got)
	}
	if !a.Fits(b) || b.Fits(a) {
		t.Error("Fits wrong")
	}
	if !a.NonNegative() || (Resources{-1, 0, 0}).NonNegative() {
		t.Error("NonNegative wrong")
	}
	if !(Resources{}).IsZero() || a.IsZero() {
		t.Error("IsZero wrong")
	}
}

func TestMaxFraction(t *testing.T) {
	cap := Resources{10, 100, 1000}
	if got := (Resources{5, 80, 100}).MaxFraction(cap); got != 0.8 {
		t.Errorf("MaxFraction = %v, want 0.8", got)
	}
	if got := (Resources{}).MaxFraction(Resources{}); got != 0 {
		t.Errorf("zero/zero MaxFraction = %v, want 0", got)
	}
	if got := (Resources{1, 0, 0}).MaxFraction(Resources{}); got < 1e8 {
		t.Errorf("nonzero/zero MaxFraction = %v, want huge", got)
	}
}

func TestPlaceStartRemove(t *testing.T) {
	c, _, servers, app := buildSmall(t)
	v, err := c.PlaceVM(app.ID, servers[0].ID, testSlice())
	if err != nil {
		t.Fatalf("PlaceVM: %v", err)
	}
	if v.State != VMDeploying {
		t.Errorf("new VM state = %v, want deploying", v.State)
	}
	if !v.Served().IsZero() {
		t.Error("deploying VM should serve nothing")
	}
	if err := c.Start(v.ID); err != nil {
		t.Fatalf("Start: %v", err)
	}
	v.Demand = Resources{CPU: 0.5, MemMB: 512, NetMbps: 50}
	if got := v.Served(); got != v.Demand {
		t.Errorf("Served = %v, want %v", got, v.Demand)
	}
	if servers[0].Used() != testSlice() {
		t.Errorf("server used = %v", servers[0].Used())
	}
	if app.NumInstances() != 1 {
		t.Errorf("NumInstances = %d", app.NumInstances())
	}
	if err := c.RemoveVM(v.ID); err != nil {
		t.Fatalf("RemoveVM: %v", err)
	}
	if !servers[0].Used().IsZero() || app.NumInstances() != 0 || c.NumVMs() != 0 {
		t.Error("removal did not release state")
	}
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestServedClampedBySlice(t *testing.T) {
	c, _, servers, app := buildSmall(t)
	v, _ := c.PlaceVM(app.ID, servers[0].ID, testSlice())
	c.Start(v.ID)
	v.Demand = Resources{CPU: 5, MemMB: 100, NetMbps: 500}
	got := v.Served()
	want := Resources{CPU: 1, MemMB: 100, NetMbps: 100}
	if got != want {
		t.Errorf("Served = %v, want %v", got, want)
	}
	if ov := v.Overload(); ov != 5 {
		t.Errorf("Overload = %v, want 5", ov)
	}
}

func TestPlaceVMCapacityRejected(t *testing.T) {
	c, _, servers, app := buildSmall(t)
	big := testServer().Add(Resources{CPU: 1})
	if _, err := c.PlaceVM(app.ID, servers[0].ID, big); !errors.Is(err, ErrInsufficient) {
		t.Errorf("err = %v, want ErrInsufficient", err)
	}
	if _, err := c.PlaceVM(999, servers[0].ID, testSlice()); !errors.Is(err, ErrNotFound) {
		t.Errorf("bad app err = %v", err)
	}
	if _, err := c.PlaceVM(app.ID, 999, testSlice()); !errors.Is(err, ErrNotFound) {
		t.Errorf("bad server err = %v", err)
	}
	if _, err := c.PlaceVM(app.ID, servers[0].ID, Resources{CPU: -1}); !errors.Is(err, ErrBadState) {
		t.Errorf("negative slice err = %v", err)
	}
}

func TestResize(t *testing.T) {
	c, _, servers, app := buildSmall(t)
	v, _ := c.PlaceVM(app.ID, servers[0].ID, testSlice())
	c.Start(v.ID)
	bigger := Resources{CPU: 4, MemMB: 8192, NetMbps: 500}
	if err := c.ResizeVM(v.ID, bigger); err != nil {
		t.Fatalf("ResizeVM grow: %v", err)
	}
	if servers[0].Used() != bigger {
		t.Errorf("used after grow = %v", servers[0].Used())
	}
	smaller := Resources{CPU: 0.5, MemMB: 256, NetMbps: 10}
	if err := c.ResizeVM(v.ID, smaller); err != nil {
		t.Fatalf("ResizeVM shrink: %v", err)
	}
	if servers[0].Used() != smaller {
		t.Errorf("used after shrink = %v", servers[0].Used())
	}
	huge := testServer().Scale(2)
	if err := c.ResizeVM(v.ID, huge); !errors.Is(err, ErrInsufficient) {
		t.Errorf("oversize resize err = %v", err)
	}
	if err := c.ResizeVM(v.ID, Resources{CPU: -1}); !errors.Is(err, ErrBadState) {
		t.Errorf("negative resize err = %v", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestResizeFullServerSwap(t *testing.T) {
	// Shrinking one VM then growing another on a full server must work;
	// growing first must fail. This is knob E's core use case.
	c := New()
	p := c.AddPod()
	s, _ := c.AddServer(p.ID, Resources{CPU: 2, MemMB: 2048, NetMbps: 200})
	app := c.AddApp("a", testSlice())
	v1, _ := c.PlaceVM(app.ID, s.ID, testSlice())
	v2, _ := c.PlaceVM(app.ID, s.ID, testSlice())
	grow := Resources{CPU: 1.5, MemMB: 1536, NetMbps: 150}
	if err := c.ResizeVM(v1.ID, grow); !errors.Is(err, ErrInsufficient) {
		t.Fatalf("grow on full server err = %v, want ErrInsufficient", err)
	}
	shrink := Resources{CPU: 0.5, MemMB: 512, NetMbps: 50}
	if err := c.ResizeVM(v2.ID, shrink); err != nil {
		t.Fatalf("shrink: %v", err)
	}
	if err := c.ResizeVM(v1.ID, grow); err != nil {
		t.Fatalf("grow after shrink: %v", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestMigrate(t *testing.T) {
	c, _, servers, app := buildSmall(t)
	v, _ := c.PlaceVM(app.ID, servers[0].ID, testSlice())
	c.Start(v.ID)
	if err := c.MigrateVM(v.ID, servers[1].ID); err != nil {
		t.Fatalf("MigrateVM: %v", err)
	}
	if v.Server != servers[1].ID {
		t.Errorf("vm server = %d", v.Server)
	}
	if !servers[0].Used().IsZero() || servers[1].Used() != testSlice() {
		t.Error("migration did not move usage")
	}
	// Self-migration is a no-op.
	if err := c.MigrateVM(v.ID, servers[1].ID); err != nil {
		t.Errorf("self migration: %v", err)
	}
	// Migration to a full server fails.
	filler := c.AddApp("filler", testServer())
	if _, err := c.PlaceVM(filler.ID, servers[2].ID, testServer()); err != nil {
		t.Fatal(err)
	}
	if err := c.MigrateVM(v.ID, servers[2].ID); !errors.Is(err, ErrInsufficient) {
		t.Errorf("migrate to full server err = %v", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestTransferServer(t *testing.T) {
	c, pods, servers, app := buildSmall(t)
	v, _ := c.PlaceVM(app.ID, servers[0].ID, testSlice())
	c.Start(v.ID)
	if err := c.TransferServer(servers[0].ID, pods[1].ID); err != nil {
		t.Fatalf("TransferServer: %v", err)
	}
	if servers[0].Pod != pods[1].ID {
		t.Errorf("server pod = %d", servers[0].Pod)
	}
	if pods[0].NumServers() != 1 || pods[1].NumServers() != 3 {
		t.Errorf("pod sizes = %d,%d", pods[0].NumServers(), pods[1].NumServers())
	}
	// VM came along with the server (elephant-pod mitigation path).
	if !c.Covers(app.ID, pods[1].ID) {
		t.Error("app should cover recipient pod after transfer")
	}
	if c.Covers(app.ID, pods[0].ID) {
		t.Error("app should no longer cover donor pod")
	}
	// No-op transfer.
	if err := c.TransferServer(servers[0].ID, pods[1].ID); err != nil {
		t.Errorf("self transfer: %v", err)
	}
	if err := c.TransferServer(999, pods[0].ID); !errors.Is(err, ErrNotFound) {
		t.Errorf("bad server err = %v", err)
	}
	if err := c.TransferServer(servers[0].ID, 999); !errors.Is(err, ErrNotFound) {
		t.Errorf("bad pod err = %v", err)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Errorf("invariants: %v", err)
	}
}

func TestPodAggregates(t *testing.T) {
	c, pods, servers, app := buildSmall(t)
	v1, _ := c.PlaceVM(app.ID, servers[0].ID, testSlice())
	v2, _ := c.PlaceVM(app.ID, servers[1].ID, testSlice())
	c.Start(v1.ID)
	c.Start(v2.ID)
	v1.Demand = Resources{CPU: 0.5}
	v2.Demand = Resources{CPU: 0.7}
	if got := c.PodCapacity(pods[0].ID); got != testServer().Scale(2) {
		t.Errorf("PodCapacity = %v", got)
	}
	if got := c.PodUsed(pods[0].ID); got != testSlice().Scale(2) {
		t.Errorf("PodUsed = %v", got)
	}
	if got := c.PodDemand(pods[0].ID); got.CPU != 1.2 {
		t.Errorf("PodDemand CPU = %v", got.CPU)
	}
	if got := c.PodNumVMs(pods[0].ID); got != 2 {
		t.Errorf("PodNumVMs = %d", got)
	}
	wantUtil := testSlice().Scale(2).MaxFraction(testServer().Scale(2))
	if got := c.PodUtilization(pods[0].ID); got != wantUtil {
		t.Errorf("PodUtilization = %v, want %v", got, wantUtil)
	}
	if got := c.PodUtilization(999); got != 0 {
		t.Errorf("missing pod utilization = %v", got)
	}
	vms := c.AppVMsInPod(app.ID, pods[0].ID)
	if len(vms) != 2 || vms[0] != v1.ID || vms[1] != v2.ID {
		t.Errorf("AppVMsInPod = %v", vms)
	}
}

func TestIDListings(t *testing.T) {
	c, pods, servers, app := buildSmall(t)
	if got := c.PodIDs(); len(got) != 2 || got[0] != pods[0].ID {
		t.Errorf("PodIDs = %v", got)
	}
	if got := c.ServerIDs(); len(got) != 4 {
		t.Errorf("ServerIDs = %v", got)
	}
	if got := c.AppIDs(); len(got) != 1 || got[0] != app.ID {
		t.Errorf("AppIDs = %v", got)
	}
	v, _ := c.PlaceVM(app.ID, servers[0].ID, testSlice())
	if got := c.VMIDs(); len(got) != 1 || got[0] != v.ID {
		t.Errorf("VMIDs = %v", got)
	}
	if got := servers[0].VMIDs(); len(got) != 1 || got[0] != v.ID {
		t.Errorf("server VMIDs = %v", got)
	}
	if got := app.VMIDs(); len(got) != 1 || got[0] != v.ID {
		t.Errorf("app VMIDs = %v", got)
	}
	if got := pods[0].ServerIDs(); len(got) != 2 {
		t.Errorf("pod ServerIDs = %v", got)
	}
}

func TestVMStateStrings(t *testing.T) {
	cases := map[VMState]string{
		VMDeploying: "deploying", VMRunning: "running",
		VMMigrating: "migrating", VMStopped: "stopped", VMState(9): "VMState(9)",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", int(s), s.String(), want)
		}
	}
}

// Property: after any random sequence of place/remove/resize/migrate/
// transfer operations, cluster invariants hold: no server is ever
// overcommitted and all indices stay consistent.
func TestPropertyRandomOpsKeepInvariants(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		var podIDs []PodID
		var serverIDs []ServerID
		for i := 0; i < 3; i++ {
			p := c.AddPod()
			podIDs = append(podIDs, p.ID)
			for j := 0; j < 3; j++ {
				s, err := c.AddServer(p.ID, testServer())
				if err != nil {
					return false
				}
				serverIDs = append(serverIDs, s.ID)
			}
		}
		app := c.AddApp("p", testSlice())
		var vms []VMID
		for _, op := range ops {
			switch op % 5 {
			case 0: // place
				srv := serverIDs[rng.Intn(len(serverIDs))]
				if v, err := c.PlaceVM(app.ID, srv, testSlice()); err == nil {
					c.Start(v.ID)
					vms = append(vms, v.ID)
				}
			case 1: // remove
				if len(vms) > 0 {
					i := rng.Intn(len(vms))
					c.RemoveVM(vms[i])
					vms = append(vms[:i], vms[i+1:]...)
				}
			case 2: // resize
				if len(vms) > 0 {
					id := vms[rng.Intn(len(vms))]
					k := 0.25 + rng.Float64()*3
					c.ResizeVM(id, testSlice().Scale(k)) // may fail; fine
				}
			case 3: // migrate
				if len(vms) > 0 {
					id := vms[rng.Intn(len(vms))]
					c.MigrateVM(id, serverIDs[rng.Intn(len(serverIDs))])
				}
			case 4: // transfer server
				c.TransferServer(serverIDs[rng.Intn(len(serverIDs))], podIDs[rng.Intn(len(podIDs))])
			}
			if err := c.CheckInvariants(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(5))}); err != nil {
		t.Error(err)
	}
}

// TestPropertyMembershipOrder runs random AddServer/PlaceVM/RemoveVM/
// MigrateVM/TransferServer sequences against a map-based model of pod,
// server and application membership, and checks after every operation
// that Pod.ServerIDs, Server.VMIDs, Application.VMIDs and AppVMsInPod
// list exactly the model's members in strictly ascending order.
func TestPropertyMembershipOrder(t *testing.T) {
	f := func(ops []uint8, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		c := New()
		podOf := map[ServerID]PodID{} // model: server → pod
		hostOf := map[VMID]ServerID{} // model: live VM → server
		appOf := map[VMID]AppID{}     // model: live VM → app
		var servers []ServerID
		var vms []VMID
		for i := 0; i < 3; i++ {
			c.AddPod()
		}
		apps := []AppID{c.AddApp("a", testSlice()).ID, c.AddApp("b", testSlice()).ID}
		addServer := func() {
			pod := PodID(rng.Intn(3))
			s, err := c.AddServer(pod, testServer())
			if err != nil {
				t.Fatal(err)
			}
			podOf[s.ID] = pod
			servers = append(servers, s.ID)
		}
		addServer()
		for _, op := range ops {
			switch op % 5 {
			case 0:
				addServer()
			case 1:
				app := apps[rng.Intn(len(apps))]
				srv := servers[rng.Intn(len(servers))]
				if v, err := c.PlaceVM(app, srv, testSlice()); err == nil {
					hostOf[v.ID], appOf[v.ID] = srv, app
					vms = append(vms, v.ID)
				}
			case 2:
				if len(vms) > 0 {
					i := rng.Intn(len(vms))
					if err := c.RemoveVM(vms[i]); err != nil {
						t.Fatal(err)
					}
					delete(hostOf, vms[i])
					delete(appOf, vms[i])
					vms = append(vms[:i], vms[i+1:]...)
				}
			case 3:
				if len(vms) > 0 {
					id := vms[rng.Intn(len(vms))]
					dst := servers[rng.Intn(len(servers))]
					if err := c.MigrateVM(id, dst); err == nil {
						hostOf[id] = dst
					}
				}
			case 4:
				srv := servers[rng.Intn(len(servers))]
				pod := PodID(rng.Intn(3))
				if err := c.TransferServer(srv, pod); err != nil {
					t.Fatal(err)
				}
				podOf[srv] = pod
			}
			if err := c.CheckInvariants(); err != nil {
				t.Logf("invariant violated: %v", err)
				return false
			}
			for _, pid := range c.PodIDs() {
				var want []ServerID
				for _, sid := range servers {
					if podOf[sid] == pid {
						want = append(want, sid)
					}
				}
				if !sameAscending(c.Pod(pid).ServerIDs(), want) {
					t.Logf("pod %d servers %v, model %v", pid, c.Pod(pid).ServerIDs(), want)
					return false
				}
				for _, app := range apps {
					var wantVMs []VMID
					for _, id := range vms {
						if appOf[id] == app && podOf[hostOf[id]] == pid {
							wantVMs = append(wantVMs, id)
						}
					}
					if got := c.AppVMsInPod(app, pid); !sameAscending(got, wantVMs) {
						t.Logf("app %d in pod %d: %v, model %v", app, pid, got, wantVMs)
						return false
					}
					if c.Covers(app, pid) != (len(wantVMs) > 0) {
						t.Logf("Covers(%d, %d) disagrees with model", app, pid)
						return false
					}
				}
			}
			for _, sid := range servers {
				var want []VMID
				for _, id := range vms {
					if hostOf[id] == sid {
						want = append(want, id)
					}
				}
				if !sameAscending(c.Server(sid).VMIDs(), want) {
					t.Logf("server %d VMs %v, model %v", sid, c.Server(sid).VMIDs(), want)
					return false
				}
			}
			for _, app := range apps {
				var want []VMID
				for _, id := range vms {
					if appOf[id] == app {
						want = append(want, id)
					}
				}
				if !sameAscending(c.App(app).VMIDs(), want) || !sameAscending(c.App(app).VMIDsView(), want) {
					t.Logf("app %d VMs %v, model %v", app, c.App(app).VMIDs(), want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60, Rand: rand.New(rand.NewSource(13))}); err != nil {
		t.Error(err)
	}
}

// sameAscending reports whether got is strictly ascending and equal to
// want (whose elements are distinct, in any order).
func sameAscending[T cmp.Ordered](got, want []T) bool {
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			return false
		}
	}
	want = slices.Clone(want)
	slices.Sort(want)
	return slices.Equal(got, want)
}

// TestCheckInvariantsRejectsUnsortedMembership corrupts the order of
// each membership list in turn and checks the audit catches it.
func TestCheckInvariantsRejectsUnsortedMembership(t *testing.T) {
	cases := map[string]func(c *Cluster, pod *Pod, srv *Server, app *Application){
		"pod servers": func(c *Cluster, pod *Pod, _ *Server, _ *Application) {
			pod.servers[0], pod.servers[1] = pod.servers[1], pod.servers[0]
		},
		"server vms": func(_ *Cluster, _ *Pod, srv *Server, _ *Application) {
			srv.vms[0], srv.vms[1] = srv.vms[1], srv.vms[0]
		},
		"app vms": func(_ *Cluster, _ *Pod, _ *Server, app *Application) {
			app.vms[0], app.vms[1] = app.vms[1], app.vms[0]
		},
	}
	for name, corrupt := range cases {
		c, pods, servers, app := buildSmall(t)
		for i := 0; i < 2; i++ {
			if _, err := c.PlaceVM(app.ID, servers[0].ID, testSlice()); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: clean cluster: %v", name, err)
		}
		corrupt(c, pods[0], servers[0], app)
		if err := c.CheckInvariants(); err == nil {
			t.Errorf("%s: out-of-order membership list passed CheckInvariants", name)
		}
	}
}

// TestOnVMChange: the hook fires exactly once per successful Start,
// RemoveVM, ResizeVM and MigrateVM, after the change, and never for a
// placement, a rejected operation or a no-op migration.
func TestOnVMChange(t *testing.T) {
	c, _, servers, app := buildSmall(t)
	var fired []VMState
	var calls int
	c.OnVMChange = func(vm *VM) {
		calls++
		fired = append(fired, vm.State)
	}
	expect := func(op string, want int) {
		t.Helper()
		if calls != want {
			t.Fatalf("after %s: hook fired %d times in total, want %d", op, calls, want)
		}
	}
	vm, err := c.PlaceVM(app.ID, servers[0].ID, testSlice())
	if err != nil {
		t.Fatal(err)
	}
	expect("PlaceVM", 0)
	if err := c.Start(vm.ID); err != nil {
		t.Fatal(err)
	}
	expect("Start", 1)
	if err := c.Start(vm.ID); err == nil {
		t.Fatal("Start of a running VM accepted")
	}
	expect("rejected Start", 1)
	if err := c.ResizeVM(vm.ID, Resources{CPU: 2, MemMB: 1024, NetMbps: 100}); err != nil {
		t.Fatal(err)
	}
	expect("ResizeVM", 2)
	if err := c.ResizeVM(vm.ID, Resources{CPU: 1000}); err == nil {
		t.Fatal("oversized resize accepted")
	}
	expect("rejected ResizeVM", 2)
	if err := c.MigrateVM(vm.ID, vm.Server); err != nil {
		t.Fatal(err)
	}
	expect("no-op MigrateVM", 2)
	if err := c.MigrateVM(vm.ID, servers[1].ID); err != nil {
		t.Fatal(err)
	}
	expect("MigrateVM", 3)
	if err := c.RemoveVM(vm.ID); err != nil {
		t.Fatal(err)
	}
	expect("RemoveVM", 4)
	if err := c.RemoveVM(vm.ID); err == nil {
		t.Fatal("double RemoveVM accepted")
	}
	expect("rejected RemoveVM", 4)
	if want := []VMState{VMRunning, VMRunning, VMRunning, VMStopped}; !slices.Equal(fired, want) {
		t.Errorf("hook saw states %v, want %v (fired after each change)", fired, want)
	}
}

// TestReservedPlaceVMAllocs: after Reserve, PlaceVM allocates nothing;
// the VM table's chunks, the server's list and the application's list
// all fill reserved room.
func TestReservedPlaceVMAllocs(t *testing.T) {
	const n = vmChunk // the measured run fills a table chunk of its own
	c := New()
	pod := c.AddPod()
	srv, err := c.AddServer(pod.ID, testSlice().Scale(2*n))
	if err != nil {
		t.Fatal(err)
	}
	// AllocsPerRun calls f once more than runs; each call fills its own
	// application.
	c.Reserve(2, n, 2*n)
	apps := []*Application{c.AddApp("a", testSlice()), c.AddApp("b", testSlice())}
	run := 0
	allocs := testing.AllocsPerRun(1, func() {
		app := apps[run]
		run++
		for i := 0; i < n; i++ {
			if _, err := c.PlaceVM(app.ID, srv.ID, testSlice()); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("%d PlaceVMs after Reserve allocate %v times, want 0", n, allocs)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	// Reserved room is invisible: the lists hold exactly what was placed.
	if got := apps[0].NumInstances() + apps[1].NumInstances(); got != 2*n || srv.NumVMs() != 2*n {
		t.Fatalf("apps hold %d VMs, server %d, want %d", got, srv.NumVMs(), 2*n)
	}
	// A later, smaller reservation keeps every list and chunk in place.
	c.Reserve(1, 1, 1)
	if srv.NumVMs() != 2*n || c.NumVMs() != 2*n {
		t.Fatalf("after a second Reserve: server %d VMs, cluster %d, want %d", srv.NumVMs(), c.NumVMs(), 2*n)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
