package experiments

import (
	"strconv"
	"strings"
	"testing"
)

func TestR9ArchitecturesRows(t *testing.T) {
	tb, err := R9Architectures(bg, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 5 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// SWMR must report higher total power than MWSR (receiver rings).
	for r := 0; r < tb.NumRows(); r++ {
		mwsr := parseF(t, tb.Cell(r, 4))
		swmr := parseF(t, tb.Cell(r, 5))
		if swmr <= mwsr {
			t.Errorf("%s: swmr power %g not above mwsr %g", tb.Cell(r, 0), swmr, mwsr)
		}
	}
}

func TestR10CaptureFabricQuick(t *testing.T) {
	tb, err := R10CaptureFabric(bg, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 { // quick: first two kernels
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// SCTM from any capture fabric must beat naive replay.
	for r := 0; r < tb.NumRows(); r++ {
		naive := parsePct(t, tb.Cell(r, 4))
		for col := 1; col <= 3; col++ {
			if got := parsePct(t, tb.Cell(r, col)); got > naive+2 {
				t.Errorf("%s col %d: sctm %.1f%% worse than naive %.1f%%", tb.Cell(r, 0), col, got, naive)
			}
		}
	}
}

func TestR12HybridQuick(t *testing.T) {
	tb, err := R12Hybrid(bg, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if tb.Cell(0, 6) == "" {
		t.Fatal("best column empty")
	}
}

func TestExtensionsViaByName(t *testing.T) {
	for _, name := range []string{"r9", "r12"} {
		tb, err := ByName(bg, name, quickOpts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tb.NumRows() == 0 {
			t.Fatalf("%s empty", name)
		}
	}
}

func parseF(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "x"), 64)
	if err != nil {
		t.Fatalf("bad float %q: %v", s, err)
	}
	return v
}

func TestR13PhotonicsQuick(t *testing.T) {
	tb, err := R13Photonics(bg, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 6 { // quick: 2 node counts × 1 wg × 3 ring losses
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// Laser power must grow with node count at fixed losses.
	small := parseF(t, tb.Cell(0, 4))
	large := parseF(t, tb.Cell(3, 4))
	if large <= small {
		t.Fatalf("laser power did not grow with nodes: %g vs %g", small, large)
	}
}

func TestR14WhatIfQuick(t *testing.T) {
	tb, err := R14WhatIf(bg, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 1 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if e := parsePct(t, tb.Cell(0, 4)); e > 25 {
		t.Fatalf("what-if prediction error %.1f%% implausibly large", e)
	}
}

func TestR15LeagueQuick(t *testing.T) {
	tb, err := R15League(bg, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// Winner column must name one of the designs.
	winner := tb.Cell(0, 7)
	ok := false
	for _, d := range leagueDesigns() {
		if winner == d.name {
			ok = true
		}
	}
	if !ok {
		t.Fatalf("winner %q is not a known design", winner)
	}
}

func TestR16SeedsQuick(t *testing.T) {
	tb, err := R16Seeds(bg, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// SCTM must be accurate in absolute terms, or at least not worse than
	// naive replay (at tiny quick scale both can land in the low single
	// digits, where their ordering is noise).
	for r := 0; r < tb.NumRows(); r++ {
		naive := parsePct(t, tb.Cell(r, 2))
		sctm := parsePct(t, tb.Cell(r, 4))
		if sctm > 5 && sctm > naive+1 {
			t.Errorf("%s: sctm %.1f%% not better than naive %.1f%%", tb.Cell(r, 0), sctm, naive)
		}
	}
}

func TestR17MemoryQuick(t *testing.T) {
	tb, err := R17Memory(bg, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 4 { // 2 kernels × 2 regimes
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// Memory-bound runs must be slower than cache-resident on the same
	// fabric (off-chip traffic costs something).
	for r := 0; r < tb.NumRows(); r += 2 {
		cache := parseF(t, tb.Cell(r, 2))
		mem := parseF(t, tb.Cell(r+1, 2))
		if mem < cache {
			t.Errorf("%s: memory-bound electrical %g faster than cache-resident %g",
				tb.Cell(r, 0), mem, cache)
		}
	}
}
