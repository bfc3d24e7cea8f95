package health

import "testing"

func TestStatePredicatesAndString(t *testing.T) {
	cases := []struct {
		s                         State
		serving, failed, detected bool
		str                       string
	}{
		{Healthy, true, false, false, "healthy"},
		{FailedUndetected, false, true, false, "failed-undetected"},
		{FailedDetected, false, true, true, "failed-detected"},
		{Repairing, false, true, true, "repairing"},
	}
	for _, c := range cases {
		if got := c.s.Serving(); got != c.serving {
			t.Errorf("%v.Serving() = %v, want %v", c.s, got, c.serving)
		}
		if got := c.s.Failed(); got != c.failed {
			t.Errorf("%v.Failed() = %v, want %v", c.s, got, c.failed)
		}
		if got := c.s.Detected(); got != c.detected {
			t.Errorf("%v.Detected() = %v, want %v", c.s, got, c.detected)
		}
		if got := c.s.String(); got != c.str {
			t.Errorf("State(%d).String() = %q, want %q", int(c.s), got, c.str)
		}
	}
	if got := State(99).String(); got != "unknown" {
		t.Errorf("State(99).String() = %q, want %q", got, "unknown")
	}
	if got := TransitionLabel(Healthy, FailedUndetected); got != "healthy→failed-undetected" {
		t.Errorf("TransitionLabel = %q", got)
	}
}

func TestPhaseEdges(t *testing.T) {
	cases := []struct {
		from, to               State
		inject, detect, repair bool
	}{
		{Healthy, FailedUndetected, true, false, false},
		{FailedUndetected, FailedDetected, false, true, false},
		{FailedUndetected, Repairing, false, true, false}, // detect and react in one step
		{FailedDetected, Repairing, false, false, false},
		{Repairing, Healthy, false, false, true},
		{FailedUndetected, Healthy, false, false, true}, // flap cleared before detection
		{Healthy, Healthy, false, false, false},
	}
	for _, c := range cases {
		i, d, r := PhaseEdges(c.from, c.to)
		if i != c.inject || d != c.detect || r != c.repair {
			t.Errorf("PhaseEdges(%v, %v) = %v %v %v, want %v %v %v",
				c.from, c.to, i, d, r, c.inject, c.detect, c.repair)
		}
	}
}
