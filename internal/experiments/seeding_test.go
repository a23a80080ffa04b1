package experiments

import (
	"strconv"
	"testing"
)

// TestR19SeedingQuick holds R19's coupled arm to what it claims: one round on
// every row, its replayed events that round plus the coupled pass, twice the
// trace's events (the zero-load arm replays the whole trace every round, so
// its replayed ÷ rounds is the event count), and parseable percentages.
func TestR19SeedingQuick(t *testing.T) {
	tb, err := R19Seeding(bg, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 15 { // 5 kernels × 3 fabrics
		t.Fatalf("rows = %d", tb.NumRows())
	}
	for r := 0; r < tb.NumRows(); r++ {
		n := map[int]int{}
		for _, c := range []int{2, 3, 10, 11} {
			if n[c], err = strconv.Atoi(tb.Cell(r, c)); err != nil {
				t.Fatalf("row %d: bad count %q in column %d", r, tb.Cell(r, c), c)
			}
		}
		if n[3] != 1 {
			t.Errorf("row %d (%s/%s): the coupled seed took %d rounds, want 1", r, tb.Cell(r, 0), tb.Cell(r, 1), n[3])
		}
		if events := n[10] / n[2]; n[11] != 2*events {
			t.Errorf("row %d (%s/%s): the coupled arm replayed %d events, want 2 × %d", r, tb.Cell(r, 0), tb.Cell(r, 1), n[11], events)
		}
		for _, c := range []int{4, 7, 8, 9} {
			parsePct(t, tb.Cell(r, c))
		}
	}
}
