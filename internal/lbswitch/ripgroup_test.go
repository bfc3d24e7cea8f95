package lbswitch

import (
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"megadc/internal/cluster"
	"megadc/internal/ids"
	"megadc/internal/ipv4"
)

// fillRIPGroup returns a CatalystCSM switch whose one VIP holds the
// switch's whole RIP budget, and the last RIP added. Each AddRIP scans
// the group for a duplicate, so the fill is the quadratic worst case of
// the flat group.
func fillRIPGroup(tb testing.TB) (*Switch, RIP) {
	tb.Helper()
	s := NewSwitch(0, CatalystCSM())
	if err := s.AddVIP(ipV, 1); err != nil {
		tb.Fatal(err)
	}
	var rip RIP
	for i := 0; i < s.Limits.MaxRIPs; i++ {
		rip = ipv4.MustParse("10.0.0.0") + RIP(i)
		if err := s.AddRIP(ipV, rip, 1); err != nil {
			tb.Fatalf("AddRIP %d: %v", i, err)
		}
	}
	return s, rip
}

// TestReservedRIPGroupAllocs: a range insert of n RIPs into an empty
// group allocates the group once, at n entries, and nothing else; the
// bulk loader relies on it.
func TestReservedRIPGroupAllocs(t *testing.T) {
	const n = 20
	s := NewSwitch(0, CatalystCSM())
	first := ipv4.MustParse("10.0.0.0")
	// AllocsPerRun calls f once more than runs; each call fills its own
	// empty VIP.
	vips := []VIP{ipA, ipB}
	for _, vip := range vips {
		if err := s.AddVIP(vip, 1); err != nil {
			t.Fatal(err)
		}
	}
	run := 0
	allocs := testing.AllocsPerRun(1, func() {
		vip := vips[run]
		run++
		if err := s.AddRIPRange(vip, first, 0, 1, n, 1); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 1 {
		t.Fatalf("a range insert of %d RIPs allocates %v times, want 1 (the group)", n, allocs)
	}
	for _, vip := range vips {
		if e := s.entry(vip); len(e.rips) != n || cap(e.rips) != n {
			t.Errorf("%s group holds %d RIPs in capacity %d, want %d in %d", vip, len(e.rips), cap(e.rips), n, n)
		}
	}
	if err := s.AddRIPRange(ipMissing, first, 0, 1, n, 1); !errors.Is(err, ErrNoSuchVIP) {
		t.Errorf("AddRIPRange on an unknown VIP: %v, want ErrNoSuchVIP", err)
	}
	if s.Reconfigs != int64(len(vips)*(n+1)) {
		t.Errorf("Reconfigs = %d, want %d (one per VIP and per RIP)", s.Reconfigs, len(vips)*(n+1))
	}
}

// TestAddRIPRangeMatchesAddRIPTagged: a range insert leaves the switch
// exactly as the same AddRIPTagged calls in range order do — entries,
// tags, weights, counters, backend generation and OnReconfig calls —
// and a failing range insert changes nothing.
func TestAddRIPRangeMatchesAddRIPTagged(t *testing.T) {
	first := ipv4.MustParse("10.0.0.0")
	const stride, n, tag = 3, 7, 40
	build := func() (*Switch, *int) {
		s := NewSwitch(0, CatalystCSM())
		if err := s.AddVIP(ipV, 1); err != nil {
			t.Fatal(err)
		}
		// Existing entries around and between the range's addresses.
		for _, r := range []RIP{first + 1, first + 100} {
			if err := s.AddRIPTagged(ipV, r, 1, 9); err != nil {
				t.Fatal(err)
			}
		}
		calls := new(int)
		s.OnReconfig = func(h ids.Index, app cluster.AppID) { *calls++ }
		return s, calls
	}
	want, wantCalls := build()
	for i := 0; i < n; i++ {
		if err := want.AddRIPTagged(ipV, first+RIP(i*stride), 2, tag+int32(i*stride)); err != nil {
			t.Fatal(err)
		}
	}
	got, gotCalls := build()
	if err := got.AddRIPRange(ipV, first, tag, stride, n, 2); err != nil {
		t.Fatal(err)
	}
	same := func(a, b *Switch) bool {
		ar, at, aw, _ := a.AppendWeightsTagged(ipV, nil, nil, nil)
		br, bt, bw, _ := b.AppendWeightsTagged(ipV, nil, nil, nil)
		return slices.Equal(ar, br) && slices.Equal(at, bt) && slices.Equal(aw, bw) &&
			a.NumRIPs() == b.NumRIPs() && a.Reconfigs == b.Reconfigs && a.BackendGen() == b.BackendGen()
	}
	if !same(got, want) || *gotCalls != *wantCalls {
		t.Fatalf("range insert differs from %d AddRIPTagged calls (OnReconfig %d vs %d)", n, *gotCalls, *wantCalls)
	}
	if err := got.CheckInvariants(); err != nil {
		t.Fatal(err)
	}

	// Failures, each leaving the switch as it was.
	small, _ := build()
	small.Limits.MaxRIPs = 2 + n - 1
	unchanged, _ := build()
	for _, c := range []struct {
		name string
		s    *Switch
		run  func(s *Switch) error
		want error
	}{
		{"overlap", got, func(s *Switch) error { return s.AddRIPRange(ipV, first+100-2*stride, 0, stride, 5, 1) }, ErrDupRIP},
		{"limit", small, func(s *Switch) error { return s.AddRIPRange(ipV, first+1000, 0, 1, n, 1) }, ErrRIPLimit},
		{"weight", unchanged, func(s *Switch) error { return s.AddRIPRange(ipV, first+1000, 0, 1, n, 0) }, ErrBadWeight},
		{"stride", unchanged, func(s *Switch) error { return s.AddRIPRange(ipV, first+1000, 0, 0, n, 1) }, ErrDupRIP},
	} {
		before := c.s.Reconfigs
		rips := c.s.NumRIPs()
		if err := c.run(c.s); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
		if c.s.Reconfigs != before || c.s.NumRIPs() != rips {
			t.Errorf("%s: failed insert changed the switch", c.name)
		}
	}
	if err := want.AddRIPRange(ipV, first+1000, 0, 1, 0, 1); err != nil || !same(got, want) {
		t.Errorf("empty range insert: %v", err)
	}
}

// TestFullRIPGroup: a VIP at the per-switch RIP limit keeps every input
// check, and every operation on its last entry still works, including
// refilling its slot with a tagged insert.
func TestFullRIPGroup(t *testing.T) {
	s, last := fillRIPGroup(t)
	limit := s.Limits.MaxRIPs
	if s.NumRIPs() != limit || s.NumRIPsOf(ipV) != limit {
		t.Fatalf("NumRIPs = %d, NumRIPsOf = %d, want %d", s.NumRIPs(), s.NumRIPsOf(ipV), limit)
	}
	if err := s.AddRIP(ipV, ipv4.MustParse("192.0.2.1"), 1); !errors.Is(err, ErrRIPLimit) {
		t.Errorf("AddRIP past the limit: %v, want ErrRIPLimit", err)
	}
	if err := s.AddRIP(ipV, last, 1); !errors.Is(err, ErrDupRIP) {
		t.Errorf("re-adding the last RIP: %v, want ErrDupRIP", err)
	}
	if _, err := s.RemoveRIP(ipV, last); err != nil {
		t.Errorf("RemoveRIP of the last entry: %v", err)
	}
	if err := s.AddRIPTagged(ipV, last, 1, 7); err != nil {
		t.Errorf("AddRIPTagged into the freed slot: %v", err)
	}
	if err := s.SetWeight(ipV, last, 3); err != nil {
		t.Errorf("SetWeight: %v", err)
	}
	rips, tags, ws, _ := s.AppendWeightsTagged(ipV, nil, nil, nil)
	if n := len(rips); n != limit || rips[n-1] != last || tags[n-1] != 7 || ws[n-1] != 3 {
		t.Errorf("last entry = %s tag %d weight %v, want %s tag 7 weight 3", rips[n-1], tags[n-1], ws[n-1], last)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if broken, err := s.RemoveRIP(ipV, last); err != nil || broken != 0 {
		t.Errorf("RemoveRIP = %d, %v", broken, err)
	}
	if s.NumRIPs() != limit-1 || s.NumRIPsOf(ipV) != limit-1 {
		t.Errorf("after RemoveRIP: NumRIPs = %d, NumRIPsOf = %d", s.NumRIPs(), s.NumRIPsOf(ipV))
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

// BenchmarkFullRIPGroup times filling one VIP to the CatalystCSM RIP
// limit (16,000 RIPs).
func BenchmarkFullRIPGroup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		fillRIPGroup(b)
	}
}

// TestRIPGroupsFlat is the source guard of the flat RIP group
// (DESIGN.md §22): non-test lbswitch code keeps a VIP's RIPs in one
// []ripEntry value slice and nothing else. It keys no map by a RIP,
// holds no slice of *ripEntry, and declares neither the old per-VIP
// index (ripIndex) nor the group copy ExportVIP.
func TestRIPGroupsFlat(t *testing.T) {
	names, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	for _, name := range names {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.MapType:
				if key, ok := n.Key.(*ast.Ident); ok && key.Name == "RIP" {
					t.Errorf("%s: map keyed by a RIP; find RIPs by scanning the VIP's group", fset.Position(n.Pos()))
				}
			case *ast.ArrayType:
				if star, ok := n.Elt.(*ast.StarExpr); ok {
					if elt, ok := star.X.(*ast.Ident); ok && elt.Name == "ripEntry" {
						t.Errorf("%s: slice of *ripEntry; keep the group as a []ripEntry value slice", fset.Position(n.Pos()))
					}
				}
			case *ast.Ident:
				if n.Name == "ripIndex" || n.Name == "ExportVIP" {
					t.Errorf("%s: %s copies or indexes the RIP group beside the group itself", fset.Position(n.Pos()), n.Name)
				}
			}
			return true
		})
	}
}
