package experiments

import (
	"strconv"
	"testing"
)

func TestR19SeedingQuick(t *testing.T) {
	tb, err := R19Seeding(bg, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 15 { // 5 kernels × 3 fabrics
		t.Fatalf("rows = %d", tb.NumRows())
	}
	for r := 0; r < tb.NumRows(); r++ {
		zl, err := strconv.Atoi(tb.Cell(r, 2))
		if err != nil {
			t.Fatalf("row %d: bad zero-load rounds %q", r, tb.Cell(r, 2))
		}
		an, err := strconv.Atoi(tb.Cell(r, 3))
		if err != nil {
			t.Fatalf("row %d: bad analytic rounds %q", r, tb.Cell(r, 3))
		}
		if an > zl {
			t.Errorf("row %d (%s/%s): analytic seeding took %d rounds, zero-load %d",
				r, tb.Cell(r, 0), tb.Cell(r, 1), an, zl)
		}
	}
	// The fast path must actually save rounds somewhere: at least one row
	// with strictly fewer analytic rounds, else the experiment's headline
	// claim is hollow.
	savedSomewhere := false
	for r := 0; r < tb.NumRows(); r++ {
		zl, _ := strconv.Atoi(tb.Cell(r, 2))
		an, _ := strconv.Atoi(tb.Cell(r, 3))
		if an < zl {
			savedSomewhere = true
			break
		}
	}
	if !savedSomewhere {
		t.Error("analytic seeding saved no rounds on any kernel/fabric")
	}
	// Screening error bands must be present and parseable percentages.
	for r := 0; r < tb.NumRows(); r++ {
		for _, c := range []int{9, 10, 11} {
			parsePct(t, tb.Cell(r, c))
		}
	}
}
