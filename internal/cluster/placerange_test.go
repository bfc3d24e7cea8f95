package cluster

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// rangeSlice has no exact binary form: added up nine or ten times, one
// VM at a time as PlaceVM sums a server's used, its MemMB differs in the
// last bit from the same count times the slice, so comparing used bit
// for bit shows how it was summed.
var rangeSlice = Resources{CPU: 0.3, MemMB: 100.7, NetMbps: 3.3}

// rangeTwin builds a cluster of 8 servers in 2 pods that already holds
// live VMs, one still deploying and two removed, and then apps new
// applications, the first of which it returns. tight gives server 4 room
// for three rangeSlice VMs and server 6 for two, so both run out in a
// 11×6 range fill, server 6 first.
func rangeTwin(t *testing.T, apps int, tight bool) (*Cluster, AppID) {
	t.Helper()
	c := New()
	for p := 0; p < 2; p++ {
		pod := c.AddPod()
		for s := 0; s < 4; s++ {
			capacity := Resources{CPU: 64, MemMB: 65536, NetMbps: 1000}
			if room := map[int]float64{4: 3, 6: 2}[4*p+s]; tight && room > 0 {
				capacity = rangeSlice.Scale(room).Add(Resources{CPU: 0.01, MemMB: 0.01, NetMbps: 0.01})
			}
			if _, err := c.AddServer(pod.ID, capacity); err != nil {
				t.Fatal(err)
			}
		}
	}
	old := c.AddApp("old", rangeSlice)
	for i := 0; i < 6; i++ {
		vm, err := c.PlaceVM(old.ID, ServerID(i), rangeSlice)
		if err != nil {
			t.Fatal(err)
		}
		if i != 5 {
			if err := c.Start(vm.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, vm := range []VMID{1, 4} {
		if err := c.RemoveVM(vm); err != nil {
			t.Fatal(err)
		}
	}
	first := AppID(c.NumApps())
	for i := 0; i < apps; i++ {
		c.AddApp(fmt.Sprintf("app-%d", i), rangeSlice)
	}
	return c, first
}

// placeSequence is the reference for PlaceRange: the same instances
// placed and started one PlaceVM and Start call at a time. It returns
// the first failing instance (n when none failed) and its error.
func placeSequence(c *Cluster, first AppID, apps, perApp int, servers []ServerID) (int, error) {
	for k := 0; k < apps*perApp; k++ {
		vm, err := c.PlaceVM(first+AppID(k/perApp), servers[k%len(servers)], rangeSlice)
		if err != nil {
			return k, err
		}
		if err := c.Start(vm.ID); err != nil {
			return k, err
		}
	}
	return apps * perApp, nil
}

// clusterState renders every VM record (tombstones too), the liveness
// table, every server's list and used, and every application's list.
// %#v prints resources at full precision, where their String rounds.
func clusterState(c *Cluster) string {
	var b strings.Builder
	fmt.Fprintf(&b, "vms=%d\n", c.NumVMs())
	for i, live := range c.live {
		fmt.Fprintf(&b, "%#v live=%v\n", *c.vmAt(VMID(i)), live)
	}
	for _, s := range c.servers {
		fmt.Fprintf(&b, "server %d %v used=%#v\n", s.ID, s.vms, s.used)
	}
	for _, a := range c.apps {
		fmt.Fprintf(&b, "app %d %v\n", a.ID, a.vms)
	}
	return b.String()
}

// TestPlaceRangeMatchesPlaceVM: the range fill builds, bit for bit, the
// state of the PlaceVM and Start sequence it replaces, at any worker
// count, on a cluster with live, deploying and removed VMs already
// present and over a server list (server 3 left out) whose length does
// not divide the instances. It fires no OnVMChange, and an undersized
// server fails it at the sequence's first failing instance with
// ErrInsufficient, leaving the cluster unchanged.
func TestPlaceRangeMatchesPlaceVM(t *testing.T) {
	const apps, perApp = 11, 6
	servers := []ServerID{0, 1, 2, 4, 5, 6, 7}
	ref, first := rangeTwin(t, apps, false)
	if k, err := placeSequence(ref, first, apps, perApp, servers); err != nil {
		t.Fatalf("reference instance %d: %v", k, err)
	}
	want := clusterState(ref)
	tightRef, _ := rangeTwin(t, apps, true)
	failAt, failErr := placeSequence(tightRef, first, apps, perApp, servers)
	if !errors.Is(failErr, ErrInsufficient) || failAt == apps*perApp {
		t.Fatalf("tight reference fails at instance %d with %v, want ErrInsufficient", failAt, failErr)
	}

	for _, workers := range []int{1, 2, 3, 8} {
		c, _ := rangeTwin(t, apps, false)
		c.OnVMChange = func(vm *VM) { t.Errorf("workers=%d: OnVMChange fired for vm %d", workers, vm.ID) }
		base, err := c.PlaceRange(first, apps, perApp, servers, rangeSlice, workers)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if base != 6 {
			t.Errorf("workers=%d: base %d, want 6", workers, base)
		}
		if got := clusterState(c); got != want {
			t.Fatalf("workers=%d: range fill differs from PlaceVM+Start:\n%s\nwant:\n%s", workers, got, want)
		}
		if err := c.CheckInvariants(); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}

		tight, _ := rangeTwin(t, apps, true)
		before := clusterState(tight)
		_, err = tight.PlaceRange(first, apps, perApp, servers, rangeSlice, workers)
		if !errors.Is(err, ErrInsufficient) || !strings.Contains(err.Error(), fmt.Sprintf("instance %d ", failAt)) {
			t.Errorf("workers=%d: undersized server gives %v, want ErrInsufficient at instance %d", workers, err, failAt)
		}
		if clusterState(tight) != before {
			t.Errorf("workers=%d: failed range fill changed the cluster", workers)
		}
	}

	c, _ := rangeTwin(t, apps, false)
	before := clusterState(c)
	for _, bad := range []struct {
		name    string
		first   AppID
		servers []ServerID
		slice   Resources
		want    error
	}{
		{"unknown app", first + 1, servers, rangeSlice, ErrNotFound},
		{"unknown server", first, []ServerID{0, 8}, rangeSlice, ErrNotFound},
		{"unsorted servers", first, []ServerID{1, 0}, rangeSlice, ErrBadState},
		{"no servers", first, nil, rangeSlice, ErrBadState},
		{"negative slice", first, servers, Resources{CPU: -1}, ErrBadState},
	} {
		if _, err := c.PlaceRange(bad.first, apps, perApp, bad.servers, bad.slice, 2); !errors.Is(err, bad.want) {
			t.Errorf("%s: %v, want %v", bad.name, err, bad.want)
		}
	}
	if clusterState(c) != before {
		t.Error("rejected range fills changed the cluster")
	}
}
