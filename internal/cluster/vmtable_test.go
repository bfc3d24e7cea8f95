package cluster

import (
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"unsafe"
)

// pointerFree reports whether values of t hold no pointer for GC to
// scan.
func pointerFree(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return true
	case reflect.Array:
		return pointerFree(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if !pointerFree(t.Field(i).Type) {
				return false
			}
		}
		return true
	}
	return false
}

// TestVMTablePointerFree pins the layout of VMs by value (DESIGN.md
// §13): a VM record holds no pointer, so the VM table's chunks are
// never scanned by GC; server and application VM lists hold VMIDs, not
// *VMs; and no non-test source of the package declares a []*VM.
func TestVMTablePointerFree(t *testing.T) {
	if !pointerFree(reflect.TypeOf(VM{})) {
		t.Error("VM holds a pointer")
	}
	want := reflect.TypeOf([]VMID(nil))
	for _, typ := range []reflect.Type{reflect.TypeOf(Server{}), reflect.TypeOf(Application{})} {
		f, ok := typ.FieldByName("vms")
		if !ok {
			t.Errorf("%v has no vms list", typ)
		} else if f.Type != want {
			t.Errorf("%v.vms is %v, want %v", typ, f.Type, want)
		}
	}
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		src, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(src), "[]*VM") {
			t.Errorf("%s declares a []*VM; list VMs by VMID", name)
		}
	}
}

// TestVMRecordLayout pins the compact VM record (DESIGN.md §13): the
// entity IDs are 32-bit, the state one byte, and a record exactly one
// 64-byte cache line; every chunk of the VM table, whether Reserve or
// PlaceVM allocated it, starts on a line boundary, so no record
// straddles two lines.
func TestVMRecordLayout(t *testing.T) {
	for _, v := range []any{VMID(0), AppID(0), ServerID(0), PodID(0)} {
		if k := reflect.TypeOf(v).Kind(); k != reflect.Int32 {
			t.Errorf("%T is a %v, want int32", v, k)
		}
	}
	if n := unsafe.Sizeof(VMState(0)); n != 1 {
		t.Errorf("VMState is %d bytes, want 1", n)
	}
	const line = 64
	if n := unsafe.Sizeof(VM{}); n != line {
		t.Errorf("VM is %d bytes, want %d", n, line)
	}
	c := New()
	p := c.AddPod()
	s, err := c.AddServer(p.ID, Resources{CPU: 1e6, MemMB: 1e6, NetMbps: 1e6})
	if err != nil {
		t.Fatal(err)
	}
	a := c.AddApp("a", Resources{})
	c.Reserve(1, 2*vmChunk, 2*vmChunk)
	for i := 0; i < 3*vmChunk; i++ { // the third chunk comes from PlaceVM
		if _, err := c.PlaceVM(a.ID, s.ID, Resources{CPU: 1}); err != nil {
			t.Fatal(err)
		}
	}
	if len(c.vmChunks) != 3 {
		t.Fatalf("%d chunks, want 3", len(c.vmChunks))
	}
	for i, chunk := range c.vmChunks {
		if base := uintptr(unsafe.Pointer(&chunk[0])); base%line != 0 {
			t.Errorf("chunk %d at %#x is not line-aligned", i, base)
		}
	}
}

// TestVMPointerStableAndTombstone: a *VM from Cluster.VM stays the
// record of its VM while the table grows by several chunks, sees
// writes made through the cluster, and after RemoveVM reads the
// stopped tombstone while Cluster.VM answers nil and no list holds the
// ID.
func TestVMPointerStableAndTombstone(t *testing.T) {
	const more = 3000 // several chunk growths past the held VM
	c := New()
	pod := c.AddPod()
	srv, err := c.AddServer(pod.ID, testSlice().Scale(more+2))
	if err != nil {
		t.Fatal(err)
	}
	other, err := c.AddServer(pod.ID, testSlice().Scale(2))
	if err != nil {
		t.Fatal(err)
	}
	app := c.AddApp("a", testSlice())
	placed, err := c.PlaceVM(app.ID, srv.ID, testSlice())
	if err != nil {
		t.Fatal(err)
	}
	id := placed.ID
	held := c.VM(id)
	if held != placed {
		t.Fatalf("VM(%d) = %p, PlaceVM returned %p", id, held, placed)
	}
	for i := 0; i < more; i++ {
		if _, err := c.PlaceVM(app.ID, srv.ID, testSlice()); err != nil {
			t.Fatal(err)
		}
	}
	if got := c.VM(id); got != held {
		t.Fatalf("after %d more placements VM(%d) = %p, held %p", more, id, got, held)
	}
	if err := c.Start(id); err != nil {
		t.Fatal(err)
	}
	grown := Resources{CPU: 2, MemMB: 1024, NetMbps: 100}
	if err := c.ResizeVM(id, grown); err != nil {
		t.Fatal(err)
	}
	if held.Slice != grown || held.State != VMRunning {
		t.Fatalf("held VM reads slice %v state %v, want %v running", held.Slice, held.State, grown)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if err := c.RemoveVM(id); err != nil {
		t.Fatal(err)
	}
	if got := c.VM(id); got != nil {
		t.Fatalf("VM(%d) after RemoveVM = %+v, want nil", id, *got)
	}
	if held.State != VMStopped || held.ID != id {
		t.Fatalf("held VM after RemoveVM reads %+v, want vm %d stopped", *held, id)
	}
	for _, s := range []*Server{srv, other} {
		if slices.Contains(s.VMIDsView(), id) {
			t.Errorf("server %d still lists removed vm %d", s.ID, id)
		}
	}
	if slices.Contains(app.VMIDs(), id) || slices.Contains(c.VMIDs(), id) {
		t.Errorf("removed vm %d still listed", id)
	}
	if c.NumVMs() != more || app.NumInstances() != more || srv.NumVMs() != more {
		t.Errorf("counts after removal: cluster %d, app %d, server %d, want %d",
			c.NumVMs(), app.NumInstances(), srv.NumVMs(), more)
	}
	if err := c.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestCheckInvariantsRejectsLivenessMismatch: CheckInvariants catches
// a live table that disagrees with the membership lists or the live
// count, and a tombstone that is not stopped.
func TestCheckInvariantsRejectsLivenessMismatch(t *testing.T) {
	cases := map[string]func(c *Cluster, kept, removed VMID){
		"listed vm not live": func(c *Cluster, kept, _ VMID) { c.live[kept] = false },
		"removed vm live":    func(c *Cluster, _, removed VMID) { c.live[removed] = true },
		"tombstone running":  func(c *Cluster, _, removed VMID) { c.vmAt(removed).State = VMRunning },
		"live count off":     func(c *Cluster, _, _ VMID) { c.numVMs++ },
		"live vm stopped":    func(c *Cluster, kept, _ VMID) { c.vmAt(kept).State = VMStopped },
	}
	for name, corrupt := range cases {
		c, _, servers, app := buildSmall(t)
		var vms []VMID
		for i := 0; i < 2; i++ {
			vm, err := c.PlaceVM(app.ID, servers[0].ID, testSlice())
			if err != nil {
				t.Fatal(err)
			}
			vms = append(vms, vm.ID)
		}
		if err := c.RemoveVM(vms[1]); err != nil {
			t.Fatal(err)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("%s: clean cluster: %v", name, err)
		}
		corrupt(c, vms[0], vms[1])
		if err := c.CheckInvariants(); err == nil {
			t.Errorf("%s: passed CheckInvariants", name)
		}
	}
}
