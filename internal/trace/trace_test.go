package trace

import (
	"math"
	"strings"
	"testing"

	"megadc/internal/ipv4"
)

func TestNilRecorderIsSafe(t *testing.T) {
	var r *Recorder
	if r.Enabled() {
		t.Fatal("nil recorder reports enabled")
	}
	r.Record(EvAddVIP, 0, 0, VIP(ipv4.MustParse("10.0.0.1")))
	r.RecordErr(EvDelVIP, 0, 0, VIP(ipv4.MustParse("10.0.0.1")))
	if r.Len() != 0 || r.Total() != 0 {
		t.Fatalf("nil recorder holds events: len=%d total=%d", r.Len(), r.Total())
	}
	if got := r.Events(); got != nil {
		t.Fatalf("nil recorder Events() = %v", got)
	}
	if got := r.TailTouching([]Ref{VIP(ipv4.MustParse("10.0.0.1"))}, 5); got != nil {
		t.Fatalf("nil recorder TailTouching() = %v", got)
	}
	if err := r.WriteEvents(&strings.Builder{}); err != nil {
		t.Fatalf("nil recorder WriteEvents: %v", err)
	}
}

func TestRecordAllocsZero(t *testing.T) {
	r := NewRecorder(64)
	ref := VIP(ipv4.MustParse("10.0.0.1"))
	allocs := testing.AllocsPerRun(200, func() {
		r.Record(EvAddVIP, 1, 2, ref, App(3))
	})
	if allocs != 0 {
		t.Fatalf("Record allocates %v/op; want 0", allocs)
	}
	var nilRec *Recorder
	allocs = testing.AllocsPerRun(200, func() {
		nilRec.Record(EvAddVIP, 1, 2, ref, App(3))
	})
	if allocs != 0 {
		t.Fatalf("disabled Record allocates %v/op; want 0", allocs)
	}
}

func TestRingOverwrite(t *testing.T) {
	r := NewRecorder(4)
	for i := 0; i < 10; i++ {
		r.Record(EvPlaceVIP, float64(i), 0, App(i))
	}
	if r.Len() != 4 {
		t.Fatalf("Len = %d; want ring capacity 4", r.Len())
	}
	if r.Total() != 10 {
		t.Fatalf("Total = %d; want 10", r.Total())
	}
	evs := r.Events()
	if len(evs) != 4 {
		t.Fatalf("Events len = %d; want 4", len(evs))
	}
	for i, e := range evs {
		wantSeq := uint64(6 + i)
		if e.Seq != wantSeq {
			t.Errorf("event %d: seq %d; want %d (oldest-first survivors)", i, e.Seq, wantSeq)
		}
	}
}

func TestTailTouching(t *testing.T) {
	r := NewRecorder(32)
	r.Record(EvAddVIP, 0, 0, VIP(ipA), SwitchRef(1))
	r.Record(EvAddVIP, 0, 0, VIP(ipB), SwitchRef(2))
	r.Record(EvAddRIP, 0, 0, VIP(ipA), RIP(ipR1))
	r.Record(EvDropVIP, 0, 0, VIP(ipB))
	r.Record(EvTransferVIP, 0, 0, VIP(ipA), SwitchRef(1), SwitchRef(3))

	got := r.TailTouching([]Ref{VIP(ipA)}, 10)
	if len(got) != 3 {
		t.Fatalf("TailTouching(vip a) returned %d events; want 3", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatalf("timeline out of order: %d after %d", got[i].Seq, got[i-1].Seq)
		}
	}
	if got := r.TailTouching([]Ref{VIP(ipA)}, 2); len(got) != 2 || got[1].Type != EvTransferVIP {
		t.Fatalf("TailTouching limit: got %v", got)
	}
	// Switch ref matches by ID, not address.
	if got := r.TailTouching([]Ref{SwitchRef(3)}, 10); len(got) != 1 || got[0].Type != EvTransferVIP {
		t.Fatalf("TailTouching(switch 3): got %v", got)
	}
	if got := r.TailTouching([]Ref{VIP(ipZzz)}, 10); got != nil {
		t.Fatalf("TailTouching(unknown) = %v; want nil", got)
	}
}

func TestParseRefs(t *testing.T) {
	cases := []struct {
		in   string
		want []Ref
	}{
		{"vip 10.0.0.9", []Ref{VIP(ipv4.MustParse("10.0.0.9"))}},
		{"switch 3 vip 10.0.0.9 rip 10.1.0.4", []Ref{SwitchRef(3), VIP(ipv4.MustParse("10.0.0.9")), RIP(ipv4.MustParse("10.1.0.4"))}},
		{"app 12", []Ref{App(12)}},
		{"server 7 (pod 2)", []Ref{Server(7), Pod(2)}},
		{"link 5", []Ref{Link(5)}},
		{"vm 42", []Ref{VM(42)}},
		{"no entities here", nil},
		{"server notanumber", nil},
		{"", nil},
	}
	for _, c := range cases {
		got := ParseRefs(c.in)
		if len(got) != len(c.want) {
			t.Errorf("ParseRefs(%q) = %v; want %v", c.in, got, c.want)
			continue
		}
		for i := range got {
			if !got[i].Matches(c.want[i]) {
				t.Errorf("ParseRefs(%q)[%d] = %v; want %v", c.in, i, got[i], c.want[i])
			}
		}
	}
}

func TestEventString(t *testing.T) {
	e := Event{Seq: 7, T: 12.5, Type: EvTransferVIP, Refs: [3]Ref{VIP(ipv4.MustParse("10.0.0.1")), SwitchRef(2)}, A: 1, B: 3}
	s := e.String()
	for _, want := range []string{"7 ", "t=12.5", "transfer-vip", "vip:10.0.0.1", "switch:2", "a=1", "b=3"} {
		if !strings.Contains(s, want) {
			t.Errorf("Event.String() = %q; missing %q", s, want)
		}
	}
	bad := Event{Type: EvDelVIP, Err: 1}
	if !strings.Contains(bad.String(), "err") {
		t.Errorf("failed event string %q lacks err marker", bad.String())
	}
}

func TestTimeseriesCSVAndJSONNonFinite(t *testing.T) {
	ts := &Timeseries{}
	ts.Add(Sample{T: 0, Satisfaction: 1, VIPs: 2, RIPs: 4, QueueDepth: 1, SwitchUtilMax: 0.5, SwitchUtilMean: 0.25, LinkUtilMax: 0.75, LinkUtilMean: 0.5})
	ts.Add(Sample{T: 10, Satisfaction: math.NaN(), SwitchUtilMax: math.Inf(1)})

	var csv strings.Builder
	if err := ts.WriteCSV(&csv); err != nil {
		t.Fatalf("WriteCSV: %v", err)
	}
	lines := strings.Split(strings.TrimSpace(csv.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("CSV has %d lines; want header + 2 samples", len(lines))
	}
	if lines[0] != csvHeader {
		t.Errorf("CSV header = %q", lines[0])
	}
	if !strings.Contains(lines[2], "NaN") || !strings.Contains(lines[2], "+Inf") {
		t.Errorf("CSV non-finite row = %q; want NaN and +Inf spelled out", lines[2])
	}

	var js strings.Builder
	if err := ts.WriteJSON(&js); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	out := js.String()
	if strings.Contains(out, "NaN") || strings.Contains(out, "Inf") {
		t.Errorf("JSON output contains non-finite literals: %q", out)
	}
	if !strings.Contains(out, "\"satisfaction\":null") {
		t.Errorf("JSON output lacks null for NaN satisfaction: %q", out)
	}
	if !strings.Contains(out, "\"satisfaction\":1") {
		t.Errorf("JSON output lacks finite satisfaction: %q", out)
	}
}

func TestTimeseriesNilSafe(t *testing.T) {
	var ts *Timeseries
	ts.Add(Sample{})
	if ts.Len() != 0 {
		t.Fatal("nil Timeseries grew")
	}
	var sb strings.Builder
	if err := ts.WriteCSV(&sb); err != nil {
		t.Fatalf("nil WriteCSV: %v", err)
	}
	sb.Reset()
	if err := ts.WriteJSON(&sb); err != nil {
		t.Fatalf("nil WriteJSON: %v", err)
	}
	if sb.String() != "[]\n" {
		t.Fatalf("nil WriteJSON = %q; want empty array", sb.String())
	}
}

// TestTailTouchingAllocs pins TailTouching at exactly one allocation —
// the result slice, preallocated from the two-pass count. The auditor
// calls this on the hot violation path over a full ring.
func TestTailTouchingAllocs(t *testing.T) {
	r := NewRecorder(1024)
	for i := 0; i < 2048; i++ {
		r.Record(EvPlaceVIP, float64(i), 0, VIP(ipHot), SwitchRef(i%8))
		r.Record(EvAdjustWeights, float64(i), 0, VIP(ipCold), Pod(i%4))
	}
	refs := []Ref{VIP(ipHot)}
	if got := r.TailTouching(refs, 64); len(got) != 64 {
		t.Fatalf("setup: got %d events, want 64", len(got))
	}
	if n := testing.AllocsPerRun(100, func() {
		r.TailTouching(refs, 64)
	}); n != 1 {
		t.Fatalf("TailTouching allocates %v times, want exactly 1 (the result slice)", n)
	}
	// No matches means no result slice: zero allocations.
	miss := []Ref{VIP(ipAbsent)}
	if n := testing.AllocsPerRun(100, func() {
		r.TailTouching(miss, 64)
	}); n != 0 {
		t.Fatalf("no-match TailTouching allocates %v times, want 0", n)
	}
}

func BenchmarkTailTouching(b *testing.B) {
	r := NewRecorder(4096)
	for i := 0; i < 8192; i++ {
		r.Record(EvPlaceVIP, float64(i), 0, VIP(ipHot), SwitchRef(i%8))
		r.Record(EvAdjustWeights, float64(i), 0, VIP(ipCold), Pod(i%4))
	}
	refs := []Ref{VIP(ipHot)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := r.TailTouching(refs, 64); len(got) != 64 {
			b.Fatalf("got %d events, want 64", len(got))
		}
	}
}
