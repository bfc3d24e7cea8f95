package exp

import (
	"os"
	"strings"
	"testing"

	"megadc/internal/metrics"
)

// TestGreedyPolicyByteIdentical pins the default (extracted greedy)
// policy against the experiment tables produced before the policy
// framework existed. The goldens in testdata/ were captured from the
// pre-refactor code at seed 1 / AuditEvery 10 (mdcexp defaults); the
// e17 golden was re-captured after the alias-sampler change (PR 9
// satellite), which legitimately re-pinned the request stream — see
// CHANGES.md. The e12 golden was captured just before the VIP
// switch-selection enum was folded into the placement framework, so
// it pins that its four policy rows survived the move. Any diff here
// means the greedy extraction is no longer byte-identical to the
// historical inline scans.
func TestGreedyPolicyByteIdentical(t *testing.T) {
	o := DefaultOptions()
	cases := []struct {
		id  string
		run func(Options) (*metrics.Table, error)
	}{
		{"e7", func(o Options) (*metrics.Table, error) { tb, _, err := RunE7(o); return tb, err }},
		{"e14", func(o Options) (*metrics.Table, error) { tb, _, err := RunE14(o); return tb, err }},
		{"e17", func(o Options) (*metrics.Table, error) { tb, _, err := RunE17(o); return tb, err }},
		{"e12", func(o Options) (*metrics.Table, error) { tb, _, err := RunE12(o); return tb, err }},
	}
	for _, c := range cases {
		golden, err := os.ReadFile("testdata/" + c.id + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		tb, err := c.run(o)
		if err != nil {
			t.Fatalf("%s: %v", c.id, err)
		}
		got := strings.TrimRight(tb.String(), "\n")
		want := strings.TrimRight(string(golden), "\n")
		if got != want {
			t.Errorf("%s table diverged from the pre-refactor golden.\n--- got ---\n%s\n--- want ---\n%s", c.id, got, want)
		}
	}
}
