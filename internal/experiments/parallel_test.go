package experiments

import (
	"bytes"
	"regexp"
	"testing"

	"onocsim"
	"onocsim/internal/metrics"
)

// wallClockCell matches decimal numbers: every wall-clock-derived cell (ms
// timings and their ratios) renders with a fractional part, while the
// deterministic simulation outputs in the tables are integers (cycles,
// messages, mW) or fixed-precision values derived from them. Masking all
// decimals is conservative — it also hides some deterministic cells — but
// leaves every integer cell compared exactly.
var wallClockCell = regexp.MustCompile(`[0-9]+\.[0-9]+x?`)

// renderMasked renders tables as CSV with wall-clock cells masked.
func renderMasked(t *testing.T, tables []*metrics.Table) string {
	t.Helper()
	var buf bytes.Buffer
	for _, tb := range tables {
		if err := tb.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
		buf.WriteByte('\n')
	}
	return wallClockCell.ReplaceAllString(buf.String(), "#")
}

// TestParallelCachedOutputMatchesSequential is the byte-identity guarantee
// of the memoized scheduler: apart from wall-clock cells (nondeterministic
// even between two sequential runs), the parallel cached report must equal
// the sequential uncached one — cold through the disk layer, and again warm
// from it.
func TestParallelCachedOutputMatchesSequential(t *testing.T) {
	sequential, err := All(bg, quickOpts)
	if err != nil {
		t.Fatal(err)
	}
	want := renderMasked(t, sequential)

	dir := t.TempDir()
	for _, mode := range []string{"cold", "warm"} {
		opts := quickOpts
		opts.Parallel = true
		opts.Session = onocsim.NewSession(dir)
		tables, err := All(bg, opts)
		if err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
		got := renderMasked(t, tables)
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

// firstDiff locates the first line where two renderings diverge.
func firstDiff(want, got string) string {
	w, g := bytes.Split([]byte(want), []byte("\n")), bytes.Split([]byte(got), []byte("\n"))
	for i := 0; i < len(w) && i < len(g); i++ {
		if !bytes.Equal(w[i], g[i]) {
			return "line " + string(rune('0'+i%10)) + ":\n want: " + string(w[i]) + "\n  got: " + string(g[i])
		}
	}
	return "length mismatch"
}
