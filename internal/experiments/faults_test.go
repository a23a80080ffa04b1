package experiments

import (
	"reflect"
	"testing"
)

func TestR18FaultsQuick(t *testing.T) {
	tb, err := R18Faults(bg, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 6 { // 3 presets × 2 fabrics
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// Fault-free rows must report zero events in every counter column.
	for r := 0; r < 2; r++ {
		for c := 6; c <= 9; c++ {
			if tb.Cell(r, c) != "0" {
				t.Errorf("off row %d col %d = %q, want 0", r, c, tb.Cell(r, c))
			}
		}
	}
	// The heavy preset must actually fire on the optical crossbar.
	heavy := 0
	for c := 6; c <= 9; c++ {
		heavy += int(parseF(t, tb.Cell(4, c)))
	}
	if heavy == 0 {
		t.Error("heavy preset produced no fault events on the optical fabric")
	}
}

// TestR18Deterministic pins the tentpole guarantee at the experiment level:
// the same options replay the same fault schedules, cell for cell.
func TestR18Deterministic(t *testing.T) {
	a, err := R18Faults(bg, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := R18Faults(bg, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	for r := 0; r < a.NumRows(); r++ {
		for c := 0; c < 10; c++ {
			if a.Cell(r, c) != b.Cell(r, c) {
				t.Errorf("cell (%d,%d): %q vs %q", r, c, a.Cell(r, c), b.Cell(r, c))
			}
		}
	}
	if !reflect.DeepEqual(a.NumRows(), b.NumRows()) {
		t.Fatal("row counts differ")
	}
}
