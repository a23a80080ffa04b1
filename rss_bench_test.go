// Memory benchmarks for the streaming out-of-core replay path. The headline
// contract: resident memory stays O(window + nodes) while the trace grows
// 10–100x, so traces far larger than RAM replay at flat RSS. Peak residency
// is sampled as live heap after GC at points during the decode stream and
// reported as the custom unit "max-rss-bytes" beside ns/op.
package onocsim_test

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"testing"

	"onocsim"
	"onocsim/internal/trace"
	"onocsim/internal/workload"
)

// peakSampler wraps a TraceSource and records the peak live heap observed
// while a consumer streams through it. Sampling forces a GC so the number is
// residency (live bytes), not allocation churn.
type peakSampler struct {
	src   onocsim.TraceSource
	every int
	peak  uint64
}

func (p *peakSampler) Meta() trace.Meta { return p.src.Meta() }

func (p *peakSampler) Pass() (trace.Iterator, error) {
	it, err := p.src.Pass()
	if err != nil {
		return nil, err
	}
	return &samplerIter{it: it, p: p}, nil
}

func (p *peakSampler) sample() {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	if ms.HeapAlloc > p.peak {
		p.peak = ms.HeapAlloc
	}
}

type samplerIter struct {
	it trace.Iterator
	p  *peakSampler
	n  int
}

func (s *samplerIter) Next(e *trace.Event) (bool, error) {
	ok, err := s.it.Next(e)
	s.n++
	if s.n%s.p.every == 0 {
		s.p.sample()
	}
	return ok, err
}

func (s *samplerIter) Close() error { return s.it.Close() }

// hugeOnDisk generates a synthetic trace of the given length on disk and
// returns its path. Nothing is materialized: generation streams too.
func hugeOnDisk(tb testing.TB, dir string, events int) string {
	tb.Helper()
	path := filepath.Join(dir, fmt.Sprintf("huge-%d.sctm", events))
	spec := workload.HugeSpec{Nodes: 16, Events: events, Pattern: "uniform", Bytes: 64, Gap: 20, Seed: 42}
	if _, err := workload.WriteHugeFile(path, spec); err != nil {
		tb.Fatal(err)
	}
	return path
}

func rssConfig() onocsim.Config {
	cfg := onocsim.DefaultConfig()
	cfg.System.Cores = 16
	return cfg
}

// streamPeakResidency replays the trace through the constant-residency
// summary tier and returns the peak live heap observed mid-stream.
func streamPeakResidency(tb testing.TB, path string) uint64 {
	tb.Helper()
	src, err := onocsim.OpenTraceFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	sampler := &peakSampler{src: src, every: 4096}
	sampler.sample()
	if _, _, err := onocsim.RunNaiveReplaySummaryContext(bg, rssConfig(), sampler, onocsim.IdealNet); err != nil {
		tb.Fatal(err)
	}
	sampler.sample()
	return sampler.peak
}

// TestStreamReplayFlatRSS is the acceptance gate for the out-of-core
// contract: growing the trace 10x must not grow streaming-replay residency
// past 2x. A materialized replay of the large trace is measured alongside to
// prove the probe can see O(events) residency when it exists.
func TestStreamReplayFlatRSS(t *testing.T) {
	if testing.Short() {
		t.Skip("generates a 200k-event trace")
	}
	dir := t.TempDir()
	const small, factor = 20_000, 10

	smallPeak := streamPeakResidency(t, hugeOnDisk(t, dir, small))
	largePath := hugeOnDisk(t, dir, small*factor)
	largePeak := streamPeakResidency(t, largePath)
	t.Logf("streaming peak residency: %d B at %d events, %d B at %d events",
		smallPeak, small, largePeak, small*factor)
	if largePeak > 2*smallPeak {
		t.Errorf("streaming residency grew with the trace: %d B -> %d B across a %dx longer trace",
			smallPeak, largePeak, factor)
	}

	// Control: the materialized path must show the growth streaming avoids —
	// otherwise this test is measuring nothing.
	tr, err := trace.LoadFile(largePath)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	materialized := ms.HeapAlloc
	runtime.KeepAlive(tr)
	t.Logf("materialized trace residency: %d B", materialized)
	if materialized < 2*largePeak {
		t.Errorf("materialized residency %d B is not visibly above streaming peak %d B; RSS probe is insensitive",
			materialized, largePeak)
	}
}

// BenchmarkStreamReplaySummaryRSS replays a 100k-event on-disk trace through
// the constant-residency tier, reporting peak residency and allocation rate
// alongside wall time. This row is the BENCH gate for the memory contract.
func BenchmarkStreamReplaySummaryRSS(b *testing.B) {
	const events = 100_000
	path := hugeOnDisk(b, b.TempDir(), events)
	src, err := onocsim.OpenTraceFile(path)
	if err != nil {
		b.Fatal(err)
	}
	sampler := &peakSampler{src: src, every: 16_384}
	cfg := rssConfig()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	startMallocs := ms.Mallocs
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := onocsim.RunNaiveReplaySummaryContext(bg, cfg, sampler, onocsim.IdealNet); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&ms)
	b.ReportMetric(float64(sampler.peak), "max-rss-bytes")
	b.ReportMetric(float64(ms.Mallocs-startMallocs)/float64(b.N)/events, "allocs/event")
}

// BenchmarkInMemoryReplayRSS is the materialized counterpart: the same trace
// loaded whole and replayed serially, with residency measured while the
// event slice is live. The max-rss-bytes contrast with the streaming row is
// the point of the pair.
func BenchmarkInMemoryReplayRSS(b *testing.B) {
	path := hugeOnDisk(b, b.TempDir(), 100_000)
	cfg := rssConfig()
	var peak uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr, err := trace.LoadFile(path)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := uncached.RunNaiveReplayContext(bg, cfg, tr, onocsim.IdealNet); err != nil {
			b.Fatal(err)
		}
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		if ms.HeapAlloc > peak {
			peak = ms.HeapAlloc
		}
		runtime.KeepAlive(tr)
	}
	b.StopTimer()
	b.ReportMetric(float64(peak), "max-rss-bytes")
}

// BenchmarkNaiveReplayInMemory is the wall-clock row of the resident replay
// on a real captured trace — the engine reads it through the same decoder
// feed a file goes through, so this row is the decoder's overhead gate too.
func BenchmarkNaiveReplayInMemory(b *testing.B) {
	tr := captureBenchTrace(b)
	cfg := rssConfig()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := uncached.RunNaiveReplayContext(bg, cfg, tr, onocsim.Optical); err != nil {
			b.Fatal(err)
		}
	}
}

// captureBenchTrace captures one real dependency-annotated trace for the
// overhead pair (memoized: capture cost must not pollute either row).
func captureBenchTrace(b *testing.B) *onocsim.Trace {
	b.Helper()
	benchTraceOnce.Do(func() {
		cfg := rssConfig()
		cfg.Workload.Kernel = "stencil"
		cfg.Workload.Scale = 8
		cfg.Workload.Iterations = 4
		benchTrace, benchTraceErr = func() (*onocsim.Trace, error) {
			tr, _, err := uncached.CaptureTraceContext(bg, cfg, onocsim.IdealNet)
			return tr, err
		}()
	})
	if benchTraceErr != nil {
		b.Fatal(benchTraceErr)
	}
	return benchTrace
}

var (
	benchTraceOnce sync.Once
	benchTrace     *onocsim.Trace
	benchTraceErr  error
)
