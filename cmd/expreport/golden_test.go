package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"onocsim/internal/experiments"
)

// TestGoldenASCII pins the ASCII rendering of representative experiments to
// byte-identical golden files: R1 (the headline accuracy table), R2 and R7
// (the simulation-cost tables, in simulated cycles), R4 (the synthetic load
// sweep: floats, bools), R18 (the fault sweep: ratios, percentages,
// counters), R19 (the seeding comparison) and R20 (the design-space sweep: the
// Pareto front and its pruning accounting must not drift). No experiment cell
// holds host time, so any diff is a rendering or modeling change — regenerate
// with:
//
//	UPDATE_GOLDEN=1 go test ./cmd/expreport -run TestGoldenASCII
func TestGoldenASCII(t *testing.T) {
	opts := experiments.Options{Seed: 42, Cores: 16, Quick: true}
	for _, id := range []string{"r1", "r2", "r4", "r7", "r18", "r19", "r20"} {
		id := id
		t.Run(id, func(t *testing.T) {
			tb, err := experiments.ByName(context.Background(), id, opts)
			if err != nil {
				t.Fatal(err)
			}
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
