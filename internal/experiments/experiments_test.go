package experiments

import (
	"context"
	"strconv"
	"strings"
	"testing"
)

// quickOpts keeps experiment tests CI-sized.
var quickOpts = Options{Seed: 42, Cores: 16, Quick: true}

// bg is the context of a caller that never cancels.
var bg = context.Background()

func TestOptionsDefaults(t *testing.T) {
	var o Options
	if o.cores() != 64 {
		t.Fatalf("default cores = %d", o.cores())
	}
	if o.seed() != 42 {
		t.Fatalf("default seed = %d", o.seed())
	}
	o = Options{Cores: 16, Seed: 7}
	if o.cores() != 16 || o.seed() != 7 {
		t.Fatal("explicit options ignored")
	}
}

// R1 and R2 are two tables over one study set.
func TestR1R2ShareStudySet(t *testing.T) {
	set, err := newStudySet(bg, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := r1FromSet(set)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := r2FromSet(bg, quickOpts, set)
	if err != nil {
		t.Fatal(err)
	}
	if t1.NumRows() != 5 || t2.NumRows() != 5 {
		t.Fatalf("rows: r1=%d r2=%d, want 5 kernels each", t1.NumRows(), t2.NumRows())
	}
	// R1's first column cycles through the kernels.
	if t1.Cell(0, 0) != "fft" || t1.Cell(2, 0) != "stencil" {
		t.Fatalf("kernel order wrong: %q %q", t1.Cell(0, 0), t1.Cell(2, 0))
	}
}

func TestR3ConvergenceRows(t *testing.T) {
	tb, err := R3Convergence(bg, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() < 4 {
		t.Fatalf("too few convergence rows: %d", tb.NumRows())
	}
	// Round numbering starts at 0 for each kernel.
	if tb.Cell(0, 1) != "0" {
		t.Fatalf("first round = %q", tb.Cell(0, 1))
	}
}

func TestR4QuickSweep(t *testing.T) {
	tb, err := R4LoadLatency(bg, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	// Quick mode: 1 pattern × 2 rates × 2 fabrics.
	if tb.NumRows() != 4 {
		t.Fatalf("rows = %d, want 4", tb.NumRows())
	}
	if !strings.Contains(tb.String(), "electrical") || !strings.Contains(tb.String(), "optical") {
		t.Fatal("missing fabric rows")
	}
}

func TestR5CaseStudyRows(t *testing.T) {
	tb, err := R5CaseStudy(bg, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 5 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if !strings.Contains(tb.String(), "geometric-mean") {
		t.Fatal("missing speedup note")
	}
}

func TestR6PowerRows(t *testing.T) {
	tb, err := R6Power(bg, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 10 { // 5 kernels × 2 fabrics
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if !strings.Contains(tb.String(), "laser") {
		t.Fatal("optical breakdown missing laser component")
	}
}

func TestR7ScalingQuick(t *testing.T) {
	tb, err := R7Scaling(bg, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 2 { // quick: 16 and 64 cores
		t.Fatalf("rows = %d", tb.NumRows())
	}
	if tb.Cell(0, 0) != "16" || tb.Cell(1, 0) != "64" {
		t.Fatalf("sizes: %q %q", tb.Cell(0, 0), tb.Cell(1, 0))
	}
}

func TestR8AblationShowsDegradation(t *testing.T) {
	tb, err := R8Ablation(bg, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	if tb.NumRows() != 5 {
		t.Fatalf("rows = %d", tb.NumRows())
	}
	// For every kernel, the full model must beat the no-causal ablation
	// (dropping request→response edges destroys the schedule).
	for r := 0; r < tb.NumRows(); r++ {
		full := parsePct(t, tb.Cell(r, 1))
		noCausal := parsePct(t, tb.Cell(r, 3))
		if noCausal <= full {
			t.Errorf("%s: no-causal (%g%%) not worse than full (%g%%)", tb.Cell(r, 0), noCausal, full)
		}
	}
}

func parsePct(t *testing.T, s string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(strings.TrimSuffix(s, "%"), 64)
	if err != nil {
		t.Fatalf("bad percentage %q: %v", s, err)
	}
	return v
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName(bg, "r99", quickOpts); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// R11, the damping sweep, went with the damping knob; the other ids keep
	// their numbers.
	if len(Names()) != 19 {
		t.Fatalf("Names() = %v", Names())
	}
	if Known("r99") || Known("r11") || !Known("r20") {
		t.Fatal("Known misclassifies experiment names")
	}
}

func TestByNameDispatch(t *testing.T) {
	for _, name := range []string{"r1", "r5"} {
		tb, err := ByName(bg, name, quickOpts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if tb.NumRows() == 0 {
			t.Fatalf("%s produced empty table", name)
		}
	}
}

func TestHelpers(t *testing.T) {
	if mean(nil) != 0 {
		t.Fatal("mean of empty")
	}
	if mean([]float64{1, 3}) != 2 {
		t.Fatal("mean wrong")
	}
	if got := topComponents(map[string]float64{"a": 1, "b": 5, "c": 3}, 2); got != "b=5.0, c=3.0" {
		t.Fatalf("topComponents = %q", got)
	}
}
