package lbswitch

import (
	"errors"
	"math/rand"
	"testing"

	"megadc/internal/ipv4"
)

// TestConnCountsMatchReference drives tracked connections through every
// operation that can end them — CloseConn, RemoveRIP, a forced VIP
// removal and a VIP transfer — on a three-switch fabric, seeded, and
// after every step checks NumConns, VIPConns, RIPConns and both
// CheckInvariants against a reference count kept beside the switches.
// The per-RIP counts are not stored in the RIP entries but counted from
// the switch's connection table; this checks that every ending path
// leaves that table, the per-VIP counts and the reference in step.
func TestConnCountsMatchReference(t *testing.T) {
	type binding struct{ vip, rip VIP }
	limits := Limits{MaxVIPs: 3, MaxRIPs: 8, ThroughputMbps: 100, MaxConns: 40, MaxPPS: 1000}
	vips := []VIP{ipv4.MustParse("1.1.1.1"), ipv4.MustParse("1.1.1.2"), ipv4.MustParse("1.1.1.3"), ipv4.MustParse("1.1.1.4")}
	rips := []RIP{ipv4.MustParse("10.0.0.1"), ipv4.MustParse("10.0.0.2"), ipv4.MustParse("10.0.0.3")}
	// ended counts, by operation, the connections it ended, so the test
	// fails if a seed change stops exercising one of them.
	var ended [8]int
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := NewFabric()
		for i := 0; i < 3; i++ {
			f.AddSwitch(limits)
		}
		// ref holds every live connection by switch; all every
		// connection ever admitted, so closes also hit ended ones.
		ref := make([]map[ConnID]binding, f.NumSwitches())
		for i := range ref {
			ref[i] = make(map[ConnID]binding)
		}
		type opened struct {
			sw SwitchID
			id ConnID
		}
		var all []opened
		// breakRef drops the reference connections on switch sw that
		// match, counts them under op and returns how many it dropped.
		breakRef := func(op int, sw SwitchID, match func(binding) bool) int {
			n := 0
			for id, b := range ref[sw] {
				if match(b) {
					delete(ref[sw], id)
					n++
				}
			}
			ended[op] += n
			return n
		}
		for step := 0; step < 400; step++ {
			vip := vips[rng.Intn(len(vips))]
			rip := rips[rng.Intn(len(rips))]
			home, homed := f.HomeOf(vip)
			op := rng.Intn(8)
			switch op {
			case 0: // place
				if !homed {
					f.PlaceVIP(vip, 1, SwitchID(rng.Intn(f.NumSwitches())))
				}
			case 1: // add a RIP
				if homed {
					f.Switch(home).AddRIP(vip, rip, 0.5+rng.Float64())
				}
			case 2, 3: // open
				if homed {
					id, got, _, err := f.Switch(home).OpenConn(vip, rng)
					if err == nil {
						ref[home][id] = binding{vip, got}
						all = append(all, opened{home, id})
					}
				}
			case 4: // close, possibly one already ended
				if len(all) > 0 {
					c := all[rng.Intn(len(all))]
					_, live := ref[c.sw][c.id]
					if got := f.Switch(c.sw).CloseConn(c.id); got != live {
						t.Fatalf("seed %d step %d: CloseConn(%d) on switch %d = %v, want %v", seed, step, c.id, c.sw, got, live)
					}
					if live {
						delete(ref[c.sw], c.id)
						ended[op]++
					}
				}
			case 5: // remove a RIP
				if homed {
					broken, err := f.Switch(home).RemoveRIP(vip, rip)
					want := 0
					if err == nil {
						want = breakRef(op, home, func(b binding) bool { return b == binding{vip, rip} })
					}
					if broken != want {
						t.Fatalf("seed %d step %d: RemoveRIP broke %d, want %d", seed, step, broken, want)
					}
				}
			case 6: // forced VIP removal
				if homed {
					before := f.BrokenConns
					if err := f.DropVIP(vip, true); err != nil {
						t.Fatalf("seed %d step %d: forced DropVIP: %v", seed, step, err)
					}
					want := breakRef(op, home, func(b binding) bool { return b.vip == vip })
					if got := f.BrokenConns - before; got != int64(want) {
						t.Fatalf("seed %d step %d: forced DropVIP broke %d, want %d", seed, step, got, want)
					}
				}
			case 7: // transfer, forced or not
				if homed {
					dst := SwitchID(rng.Intn(f.NumSwitches()))
					force := rng.Intn(2) == 0
					before := f.BrokenConns
					err := f.TransferVIP(vip, dst, force)
					want := 0
					if err == nil && dst != home {
						want = breakRef(op, home, func(b binding) bool { return b.vip == vip })
					} else if err != nil && !errors.Is(err, ErrActiveConns) && !errors.Is(err, ErrVIPLimit) && !errors.Is(err, ErrRIPLimit) {
						t.Fatalf("seed %d step %d: TransferVIP: %v", seed, step, err)
					}
					if got := f.BrokenConns - before; got != int64(want) {
						t.Fatalf("seed %d step %d: TransferVIP broke %d, want %d", seed, step, got, want)
					}
				}
			}
			for i, s := range f.Switches() {
				if err := s.CheckInvariants(); err != nil {
					t.Fatalf("seed %d step %d op %d: %v", seed, step, op, err)
				}
				if s.NumConns() != len(ref[i]) {
					t.Fatalf("seed %d step %d op %d: switch %d NumConns %d, want %d", seed, step, op, i, s.NumConns(), len(ref[i]))
				}
				perVIP := make(map[VIP]int)
				perRIP := make(map[binding]int)
				for _, b := range ref[i] {
					perVIP[b.vip]++
					perRIP[b]++
				}
				for _, v := range s.VIPs() {
					if got := s.VIPConns(v); got != perVIP[v] {
						t.Fatalf("seed %d step %d op %d: switch %d VIPConns(%s) = %d, want %d", seed, step, op, i, v, got, perVIP[v])
					}
					rs, counts := s.RIPConns(v)
					for j, r := range rs {
						if counts[j] != perRIP[binding{v, r}] {
							t.Fatalf("seed %d step %d op %d: switch %d RIPConns(%s)[%s] = %d, want %d",
								seed, step, op, i, v, r, counts[j], perRIP[binding{v, r}])
						}
					}
				}
			}
			if err := f.CheckInvariants(); err != nil {
				t.Fatalf("seed %d step %d op %d: fabric: %v", seed, step, op, err)
			}
		}
	}
	for op, name := range map[int]string{4: "CloseConn", 5: "RemoveRIP", 6: "forced DropVIP", 7: "TransferVIP"} {
		if ended[op] == 0 {
			t.Errorf("%s ended no connection in any seed", name)
		}
	}
	t.Logf("connections ended: close %d, RemoveRIP %d, forced drop %d, transfer %d", ended[4], ended[5], ended[6], ended[7])
}
