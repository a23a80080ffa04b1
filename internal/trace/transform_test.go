package trace

import (
	"testing"

	"onocsim/internal/sim"
)

// scaleAll scales every event's gap.
func scaleAll(tr *Trace, factor float64) (*Trace, error) {
	return tr.ScaleGapsWhere(factor, func(*Event) bool { return true })
}

func TestScaleGapsDoublesGaps(t *testing.T) {
	tr := tinyTrace()
	scaled, err := scaleAll(tr, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Events {
		if scaled.Events[i].Gap != 2*tr.Events[i].Gap {
			t.Fatalf("event %d gap %d, want %d", i+1, scaled.Events[i].Gap, 2*tr.Events[i].Gap)
		}
	}
	// Original untouched.
	if tr.Events[0].Gap != 5 {
		t.Fatal("ScaleGaps mutated its input")
	}
	// Reference times rebuilt consistently (arrive ≥ inject, deps honored).
	if err := scaled.Validate(); err != nil {
		t.Fatal(err)
	}
	// Latencies preserved.
	for i := range tr.Events {
		o := tr.Events[i].RefArrive - tr.Events[i].RefInject
		n := scaled.Events[i].RefArrive - scaled.Events[i].RefInject
		if o != n {
			t.Fatalf("event %d latency changed %d→%d", i+1, o, n)
		}
	}
	// Makespan grows when gaps grow.
	if scaled.RefMakespan <= tr.RefMakespan {
		t.Fatalf("makespan %d did not grow from %d", scaled.RefMakespan, tr.RefMakespan)
	}
}

func TestScaleGapsZeroAndNegative(t *testing.T) {
	tr := tinyTrace()
	z, err := scaleAll(tr, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := range z.Events {
		if z.Events[i].Gap != 0 {
			t.Fatal("zero scaling left a gap")
		}
	}
	if _, err := scaleAll(tr, -1); err == nil {
		t.Fatal("negative factor accepted")
	}
}

func TestTransformsComposeWithSchedulePipeline(t *testing.T) {
	// A scaled trace must still be consumable end to end.
	tr := tinyTrace()
	scaled, err := scaleAll(tr, 3)
	if err != nil {
		t.Fatal(err)
	}
	cp, err := scaled.CriticalPathReference()
	if err != nil {
		t.Fatal(err)
	}
	cpOrig, err := tr.CriticalPathReference()
	if err != nil {
		t.Fatal(err)
	}
	if cp.Length <= cpOrig.Length {
		t.Fatalf("tripled gaps should lengthen the critical path: %d vs %d", cp.Length, cpOrig.Length)
	}
	var _ sim.Tick = cp.Length
}
