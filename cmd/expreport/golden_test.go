package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"onocsim/internal/experiments"
	"onocsim/internal/metrics"
)

// maskWallClock returns a copy of t with host-time cells replaced, the only
// nondeterministic content a table can carry, so the remaining bytes are
// pinnable. R19 carries two wall-clock columns; the other golden tables
// contain none today, and the mask keeps those tests honest if one is ever
// added.
func maskWallClock(t *metrics.Table) *metrics.Table {
	out := metrics.NewTable(t.Title, t.Columns...)
	for r := 0; r < t.NumRows(); r++ {
		row := make([]metrics.Cell, len(t.Columns))
		for c := range row {
			if row[c] = t.At(r, c); row[c].Kind == metrics.KindDuration {
				row[c] = metrics.String("MASKED")
			}
		}
		out.AddCells(row...)
	}
	for _, n := range t.Notes() {
		out.Note("%s", n)
	}
	return out
}

// TestGoldenASCII pins the ASCII rendering of representative experiments to
// byte-identical golden files: R1 (the headline accuracy table), R4 (the
// synthetic load sweep: floats, bools), R18 (the fault sweep: ratios,
// percentages, counters), R19 (the seeding comparison: wall-clock cells
// masked) and R20 (the design-space sweep: the Pareto front and its pruning
// accounting must not drift). Simulations are deterministic, so any diff is
// a rendering or modeling change — regenerate through the same masked path
// with:
//
//	UPDATE_GOLDEN=1 go test ./cmd/expreport -run TestGoldenASCII
func TestGoldenASCII(t *testing.T) {
	opts := experiments.Options{Seed: 42, Cores: 16, Quick: true}
	for _, id := range []string{"r1", "r4", "r18", "r19", "r20"} {
		id := id
		t.Run(id, func(t *testing.T) {
			tb, err := experiments.ByName(context.Background(), id, opts)
			if err != nil {
				t.Fatal(err)
			}
			tb = maskWallClock(tb)
			var got bytes.Buffer
			if err := tb.WriteASCII(&got); err != nil {
				t.Fatal(err)
			}
			golden := filepath.Join("testdata", id+"_quick.golden")
			if os.Getenv("UPDATE_GOLDEN") != "" {
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("%s ASCII drifted from golden:\n--- got ---\n%s--- want ---\n%s", id, got.String(), want)
			}
		})
	}
}
