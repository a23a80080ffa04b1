package sweep

import (
	"bytes"
	"context"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"onocsim"
	"onocsim/internal/config"
)

// TestFrontProperties drives the Pareto extraction with random point sets
// and checks the three defining properties: the front is a subset of the
// input, no front point dominates another front point, and every excluded
// point is dominated by (or an objective-duplicate of) some front point.
func TestFrontProperties(t *testing.T) {
	type rawPoint struct {
		Lat, Thr, Pow uint8 // small domains force plenty of dominance/ties
	}
	prop := func(raw []rawPoint) bool {
		pts := make([]Point, len(raw))
		for i, r := range raw {
			pts[i] = Point{
				Label:         string(rune('a'+i%26)) + string(rune('0'+i/26%10)),
				LatencyCycles: float64(r.Lat % 8),
				ThroughputBpc: float64(r.Thr % 8),
				PowerMW:       float64(r.Pow % 8),
			}
		}
		front := Front(pts)

		inInput := func(p Point) bool {
			for _, q := range pts {
				if p == q {
					return true
				}
			}
			return false
		}
		for _, p := range front {
			if !inInput(p) {
				t.Logf("front point %+v not in input", p)
				return false
			}
		}
		for i, p := range front {
			for j, q := range front {
				if i != j && p.Dominates(q) {
					t.Logf("front point %+v dominates front point %+v", p, q)
					return false
				}
			}
		}
		onFront := func(p Point) bool {
			for _, q := range front {
				if p == q {
					return true
				}
			}
			return false
		}
		for _, p := range pts {
			if onFront(p) {
				continue
			}
			covered := false
			for _, q := range front {
				sameObjectives := q.LatencyCycles == p.LatencyCycles &&
					q.ThroughputBpc == p.ThroughputBpc && q.PowerMW == p.PowerMW
				if q.Dominates(p) || sameObjectives {
					covered = true
					break
				}
			}
			if !covered {
				t.Logf("excluded point %+v dominated by no front point", p)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDominates(t *testing.T) {
	base := Point{LatencyCycles: 10, ThroughputBpc: 5, PowerMW: 100}
	cases := []struct {
		name string
		p, q Point
		want bool
	}{
		{"strictly better everywhere", Point{LatencyCycles: 9, ThroughputBpc: 6, PowerMW: 90}, base, true},
		{"better on one axis only", Point{LatencyCycles: 9, ThroughputBpc: 5, PowerMW: 100}, base, true},
		{"identical", base, base, false},
		{"tradeoff", Point{LatencyCycles: 9, ThroughputBpc: 4, PowerMW: 100}, base, false},
		{"worse", Point{LatencyCycles: 11, ThroughputBpc: 5, PowerMW: 100}, base, false},
	}
	for _, c := range cases {
		if got := c.p.Dominates(c.q); got != c.want {
			t.Errorf("%s: Dominates = %v, want %v", c.name, got, c.want)
		}
	}
}

// TestExpandCollapsesUnobservableAxes checks the fingerprint-level dedup:
// electrical arms cannot observe the wavelength or fault axes, so a grid
// that varies only those must collapse to one job per (cores, kernel).
func TestExpandCollapsesUnobservableAxes(t *testing.T) {
	spec := config.Sweep{
		Networks:    []config.NetworkKind{config.NetElectrical},
		Cores:       []int{16},
		Wavelengths: []int{4, 16, 64},
		Faults:      []string{"off", "heavy"},
		Kernels:     []string{"stencil"},
		Quick:       true,
	}
	spec.Normalize()
	arms, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if len(arms) != 1 {
		t.Fatalf("electrical grid with 6 unobservable cells expanded to %d arms, want 1", len(arms))
	}
	if got := len(arms[0].Labels); got != 6 {
		t.Fatalf("collapsed arm carries %d labels, want 6", got)
	}
	if arms[0].Label != arms[0].Labels[0] {
		t.Fatalf("canonical label %q is not the first sorted label %q", arms[0].Label, arms[0].Labels[0])
	}
}

func TestExpandDeterministic(t *testing.T) {
	spec := config.DefaultSweep()
	a, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Expand(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("Expand is not deterministic for the same spec")
	}
}

// TestRunDefaultGrid runs the standard quick grid end to end and pins the
// acceptance properties: the grid has at least 64 arms, the analytic
// prefilter prunes at least 30% of the unique jobs before simulation, and
// the rendered JSON is byte-identical across reruns (fresh sessions, so the
// second run recomputes rather than just replaying the memo).
func TestRunDefaultGrid(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick grid in -short mode")
	}
	spec := config.DefaultSweep()
	if spec.Arms() < 64 {
		t.Fatalf("default grid has %d arms, want >= 64", spec.Arms())
	}
	run := func() (*Result, []byte) {
		res, err := Run(context.Background(), spec, Options{Session: onocsim.NewSession("")})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := res.WriteJSON(&buf); err != nil {
			t.Fatal(err)
		}
		return res, buf.Bytes()
	}
	res, first := run()

	if res.Arms != spec.Arms() {
		t.Errorf("Arms = %d, want %d", res.Arms, spec.Arms())
	}
	if res.UniqueJobs >= res.Arms {
		t.Errorf("no dedup: %d unique jobs from %d arms", res.UniqueJobs, res.Arms)
	}
	pruneFrac := float64(res.Pruned) / float64(res.UniqueJobs)
	if pruneFrac < 0.30 {
		t.Errorf("prefilter pruned %.0f%% of %d unique jobs, want >= 30%%", 100*pruneFrac, res.UniqueJobs)
	}
	if res.Simulated != res.UniqueJobs-res.Pruned {
		t.Errorf("Simulated = %d, want %d", res.Simulated, res.UniqueJobs-res.Pruned)
	}
	if len(res.Points) != res.Simulated {
		t.Errorf("%d points from %d simulations", len(res.Points), res.Simulated)
	}
	if len(res.FrontPoints) == 0 || len(res.FrontPoints) > len(res.Points) {
		t.Errorf("front size %d out of range (0, %d]", len(res.FrontPoints), len(res.Points))
	}
	for _, p := range res.Points {
		if math.IsNaN(p.LatencyCycles) || p.LatencyCycles <= 0 || p.ThroughputBpc <= 0 || p.PowerMW <= 0 {
			t.Errorf("degenerate point %+v", p)
		}
	}

	_, second := run()
	if !bytes.Equal(first, second) {
		t.Error("sweep JSON differs across reruns of the same spec")
	}
}

// TestPruneKeepsTrueFront is the prefilter's recall gate: on the quick
// default grid, the arms pruned on analytic estimates include no arm of the
// Pareto front that simulating every arm finds, so the pruned sweep reports
// the true front.
func TestPruneKeepsTrueFront(t *testing.T) {
	if testing.Short() {
		t.Skip("full quick grid, twice, in -short mode")
	}
	// One session: the unpruned run reuses the pruned run's simulations.
	sess := onocsim.NewSession("")
	run := func(margin float64) *Result {
		spec := config.DefaultSweep()
		spec.PruneMargin = margin
		res, err := Run(context.Background(), spec, Options{Session: sess})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	pruned, all := run(0), run(-1)
	if pruned.Pruned == 0 || all.Pruned != 0 || all.Simulated != all.UniqueJobs {
		t.Fatalf("pruned %d of %d unique arms at the default margin, %d with pruning off", pruned.Pruned, pruned.UniqueJobs, all.Pruned)
	}
	if !reflect.DeepEqual(pruned.FrontPoints, all.FrontPoints) {
		kept := 0
		for _, p := range all.FrontPoints {
			for _, q := range pruned.FrontPoints {
				if p == q {
					kept++
					break
				}
			}
		}
		t.Fatalf("%d of the %d true-front arms kept; pruned front %+v, true front %+v",
			kept, len(all.FrontPoints), pruned.FrontPoints, all.FrontPoints)
	}
	t.Logf("%d unique arms, %d pruned, %d simulated; all %d true-front arms kept",
		pruned.UniqueJobs, pruned.Pruned, pruned.Simulated, len(all.FrontPoints))
}
