package experiments

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"onocsim"
	"onocsim/internal/metrics"
)

// renderCSV renders tables as CSV, one after another.
func renderCSV(t *testing.T, tables []*metrics.Table) string {
	t.Helper()
	var buf bytes.Buffer
	for _, tb := range tables {
		if err := tb.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteByte('\n')
	}
	return buf.String()
}

// TestParallelCachedOutputMatchesSequential is the byte-identity guarantee
// of the memoized fan-out: the concurrent cached report All renders must equal
// the sequential uncached one byte for byte — one experiment after another,
// every simulation run afresh on a nil session — cold through the disk layer,
// and again warm from it.
func TestParallelCachedOutputMatchesSequential(t *testing.T) {
	var sequential []*metrics.Table
	for _, id := range Names() {
		tb, err := ByName(bg, id, quickOpts)
		if err != nil {
			t.Fatal(err)
		}
		sequential = append(sequential, tb)
	}
	want := renderCSV(t, sequential)

	dir := t.TempDir()
	for _, mode := range []string{"cold", "warm"} {
		opts := quickOpts
		opts.Session = onocsim.NewSession(dir)
		tables, err := All(bg, opts)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		got := renderCSV(t, tables)
		if got != want {
			t.Fatalf("%s parallel cached output diverges from sequential uncached output:\n%s",
				mode, firstDiff(want, got))
		}
		st := opts.Session.CacheStats()
		switch mode {
		case "cold":
			if st.Misses == 0 || st.Hits+st.Waits == 0 {
				t.Fatalf("cold stats show no dedup: %+v", st)
			}
			if st.DiskHits != 0 {
				t.Fatalf("cold run claims disk hits: %+v", st)
			}
		case "warm":
			if st.DiskHits == 0 {
				t.Fatalf("warm run never touched the disk layer: %+v", st)
			}
		}
	}
}

// A failing experiment stops the others: All returns that failure — not a
// sibling's cancellation — and a sibling blocked on its context is released
// by it instead of running to completion first.
func TestAllStopsOnFirstFailure(t *testing.T) {
	saved := registry
	defer func() { registry = saved }()
	boom := errors.New("boom")
	blocked, cancelled := make(chan struct{}), make(chan struct{})
	registry = []Descriptor{
		{ID: "blocks", Run: func(ctx context.Context, _ Options) (*metrics.Table, error) {
			close(blocked)
			<-ctx.Done()
			close(cancelled)
			return nil, ctx.Err()
		}},
		{ID: "fails", Run: func(context.Context, Options) (*metrics.Table, error) {
			<-blocked // fail only once the sibling is provably waiting
			return nil, boom
		}},
	}
	tables, err := All(bg, quickOpts)
	if !errors.Is(err, boom) || !strings.Contains(err.Error(), "fails") || tables != nil {
		t.Fatalf("All = %v, %v; want the failing experiment's error", tables, err)
	}
	select {
	case <-cancelled:
	default:
		t.Fatal("All returned before the blocked experiment saw its context cancelled")
	}
}

// firstDiff locates the first line (1-based) where two renderings diverge.
func firstDiff(want, got string) string {
	w, g := strings.Split(want, "\n"), strings.Split(got, "\n")
	for i := 0; i < len(w) && i < len(g); i++ {
		if w[i] != g[i] {
			return fmt.Sprintf("line %d:\n want: %s\n  got: %s", i+1, w[i], g[i])
		}
	}
	return "length mismatch"
}
