package onocsim

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// traceOnDisk round-trips a trace through the binary format and opens it as a
// streaming file source: the real out-of-core path, decoding from disk.
func traceOnDisk(t *testing.T, tr *Trace) TraceSource {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.sctm")
	if err := SaveTrace(path, tr); err != nil {
		t.Fatalf("save: %v", err)
	}
	src, err := OpenTraceFile(path)
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	return src
}

// TestFileMatchesResident holds every operation that reads a trace to one
// contract: handed the file a trace is stored in, it returns what it returns
// for the resident trace, DeepEqual, on every fabric family. The correction
// rows cover both seeds that read the trace, the zero-load probe and the
// analytic estimate.
func TestFileMatchesResident(t *testing.T) {
	cases := shardCases()
	resident, files := make([]*Trace, len(cases)), make([]TraceSource, len(cases))
	for i, tc := range cases {
		tr, _, err := uncached.CaptureTraceContext(bg, tc.cfg, IdealNet)
		if err != nil {
			t.Fatalf("%s: capture: %v", tc.name, err)
		}
		resident[i], files[i] = tr, traceOnDisk(t, tr)
	}
	correct := func(seed string) func(Config, TraceSource, NetworkKind) (any, error) {
		return func(cfg Config, src TraceSource, kind NetworkKind) (any, error) {
			cfg.SCTM.Seed = seed
			res, err := uncached.RunSelfCorrectionContext(bg, cfg, src, kind)
			return res, err
		}
	}
	for _, op := range []struct {
		name string
		run  func(Config, TraceSource, NetworkKind) (any, error)
	}{
		{"naive", func(cfg Config, src TraceSource, kind NetworkKind) (any, error) {
			res, err := uncached.RunNaiveReplayContext(bg, cfg, src, kind)
			return res, err
		}},
		{"coupled", func(cfg Config, src TraceSource, kind NetworkKind) (any, error) {
			res, err := uncached.RunCoupledReplayContext(bg, cfg, src, kind)
			return res, err
		}},
		{"estimate", func(cfg Config, src TraceSource, kind NetworkKind) (any, error) {
			res, err := uncached.Estimate(cfg, src, kind)
			return res, err
		}},
		{"correct-zeroload", correct("zeroload")},
		{"correct-analytic", correct("analytic")},
	} {
		t.Run(op.name, func(t *testing.T) {
			t.Parallel()
			for i, tc := range cases {
				want, err := op.run(tc.cfg, resident[i], tc.kind)
				if err != nil {
					t.Fatalf("%s resident: %v", tc.name, err)
				}
				got, err := op.run(tc.cfg, files[i], tc.kind)
				if err != nil {
					t.Fatalf("%s file: %v", tc.name, err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s: the file's result diverges from the resident trace's\n got: %+v\nwant: %+v", tc.name, got, want)
				}
			}
		})
	}
}

// TestStreamInvarianceNaiveReplay locks in the file-versus-memory contract of
// the naive replay for every fabric family: the constant-residency summary
// pass decoded from disk reports the figures of the resident replay, whole
// statistics block included. (The full replay of a file at K replicas has no
// entry point of its own any more; core.TestEngineAgainstReference holds it —
// "<trace>/<fabric>/<preset> file K={1,2,3,8}", schedule 0 being capture
// order — to the serial reference with DeepEqual on the whole result.)
func TestStreamInvarianceNaiveReplay(t *testing.T) {
	for _, tc := range shardCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tr, _, err := uncached.CaptureTraceContext(bg, tc.cfg, IdealNet)
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			full, err := uncached.RunNaiveReplayContext(bg, tc.cfg, tr, tc.kind)
			if err != nil {
				t.Fatalf("resident replay: %v", err)
			}
			sum, _, err := RunNaiveReplaySummaryContext(bg, tc.cfg, traceOnDisk(t, tr), tc.kind)
			if err != nil {
				t.Fatalf("summary: %v", err)
			}
			want := ReplaySummary{Events: len(tr.Events), Makespan: full.Makespan, MeanLatency: full.MeanLatency, Cycles: full.Cycles, NetStats: full.NetStats}
			if !reflect.DeepEqual(sum, want) {
				t.Errorf("summary from disk diverges from the resident replay\n got: %+v\nwant: %+v", sum, want)
			}
		})
	}
}

// TestStreamInvarianceSelfCorrection asserts the whole correction trajectory
// is identical whether the one correction door is handed the captured trace
// or the file it was stored in, at any shard count.
func TestStreamInvarianceSelfCorrection(t *testing.T) {
	for _, tc := range shardCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tr, _, err := uncached.CaptureTraceContext(bg, tc.cfg, IdealNet)
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			serial, err := uncached.RunSelfCorrectionContext(bg, tc.cfg, tr, tc.kind)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			for name, src := range map[string]TraceSource{"captured": tr, "file": traceOnDisk(t, tr)} {
				for _, k := range []int{1, 8} {
					cfg := tc.cfg
					cfg.Parallelism.Shards = k
					got, err := uncached.RunSelfCorrectionContext(bg, cfg, src, tc.kind)
					if err != nil {
						t.Fatalf("%s shards=%d: %v", name, k, err)
					}
					if !reflect.DeepEqual(got, serial) {
						t.Errorf("%s shards=%d: correction diverges:\n got: %+v\n serial: %+v", name, k, got, serial)
					}
				}
			}
		})
	}
}

// TestStreamSummaryMatchesReplay checks the constant-residency tier: summary
// fields equal the full replay's on the same fabric.
func TestStreamSummaryMatchesReplay(t *testing.T) {
	cfg := smallConfig()
	tr, _, err := uncached.CaptureTraceContext(bg, cfg, IdealNet)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	full, err := uncached.RunNaiveReplayContext(bg, cfg, tr, IdealNet)
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	sum, _, err := RunNaiveReplaySummaryContext(bg, cfg, traceOnDisk(t, tr), IdealNet)
	want := ReplaySummary{Events: len(tr.Events), Makespan: full.Makespan, MeanLatency: full.MeanLatency, Cycles: full.Cycles, NetStats: full.NetStats}
	if err != nil || !reflect.DeepEqual(sum, want) {
		t.Fatalf("summary (err %v)\n got: %+v\nwant: %+v", err, sum, want)
	}
	// The tier leans on capture order and checks it: a trace whose recorded
	// injection times go backwards is refused, not replayed out of order.
	cfg.System.Cores = 4
	_, _, err = RunNaiveReplaySummaryContext(bg, cfg, holdoutTrace(10), IdealNet)
	if err == nil {
		t.Error("summary replay accepted a trace that is not in capture order")
	} else if !strings.Contains(err.Error(), "Session.RunNaiveReplayContext") {
		t.Errorf("the refusal does not name the full replay a caller can reach: %v", err)
	}
}

// holdoutTrace needs more than n/2 events resident at once: the first half of
// the stream injects late (t=500+), the second half early (t=0+), so reaching
// the first due event forces the decoder to hold the entire late block. The
// events are dependency-free and their gaps repeat the recorded times, so the
// schedules a correction derives have the same shape as capture order.
func holdoutTrace(n int) *Trace {
	tr := &Trace{Nodes: 4, Workload: "holdout", RefMakespan: sim.Tick(1000 + 10*n)}
	for i := 0; i < n; i++ {
		at := sim.Tick(500 + i)
		if i >= n/2 {
			at = sim.Tick(i - n/2)
		}
		tr.Events = append(tr.Events, trace.Event{
			ID: trace.EventID(i + 1), Src: 0, Dst: 1, Bytes: 8,
			Class: noc.ClassRequest, Kind: trace.KindData,
			Gap: at, RefInject: at, RefArrive: at + 5,
		})
	}
	return tr
}

// TestStreamWindowTooSmallErrors pins the window-cap contract: a schedule that
// needs more resident events than the window fails loudly and immediately —
// no deadlock, no silent reorder — with an error that says what the window
// was and which document field raises it. The cap bounds what is read ahead
// from a file; a trace already in memory has nothing to bound. Once the
// window covers the holdout span, the file's correction is the resident
// trace's.
func TestStreamWindowTooSmallErrors(t *testing.T) {
	tr := holdoutTrace(10)
	cfg := smallConfig()
	cfg.System.Cores = 4
	want, err := uncached.RunSelfCorrectionContext(bg, cfg, tr, IdealNet)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		src    TraceSource
		window int
		fits   bool
	}{{tr, 4, true}, {traceOnDisk(t, tr), 4, false}, {traceOnDisk(t, tr), 10, true}} {
		cfg.Parallelism.WindowEvents = tc.window
		got, err := uncached.RunSelfCorrectionContext(bg, cfg, tc.src, IdealNet)
		if tc.fits != (err == nil) || tc.fits && !reflect.DeepEqual(got, want) {
			t.Fatalf("%T window=%d: err = %v, want fits = %v and the resident result\n got: %+v\nwant: %+v", tc.src, tc.window, err, tc.fits, got, want)
		}
		if msg := "schedule needs more than 4 resident events, the size of the streaming window; raise parallelism.window_events (-1 lifts the cap)"; err != nil && !strings.Contains(err.Error(), msg) {
			t.Fatalf("window=%d: error %q does not say %q", tc.window, err, msg)
		}
	}
}

// TestStreamDegenerateTraces pins the edge cases: an empty trace and a
// single-source chain replay identically at every shard count, and through
// the summary tier and a correction, from memory and from a file. (Their full
// replay from a file is held to the reference by
// core.TestEngineAgainstReference's "empty", "one", "same-cycle" and "self"
// traces, file K={1,2,3,8}.)
func TestStreamDegenerateTraces(t *testing.T) {
	cfg := smallConfig()
	cfg.System.Cores = 4
	for _, tc := range []struct {
		name string
		tr   *Trace
	}{
		{"empty", &Trace{Nodes: 4, Workload: "empty", RefMakespan: 100}},
		{"single-source", singleSourceChain(40)},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			want, err := uncached.RunNaiveReplayContext(bg, cfg, tc.tr, IdealNet)
			if err != nil {
				t.Fatalf("in-memory: %v", err)
			}
			wantSC, err := uncached.RunSelfCorrectionContext(bg, cfg, tc.tr, IdealNet)
			if err != nil {
				t.Fatalf("in-memory correction: %v", err)
			}
			sources := map[string]TraceSource{"memory": tc.tr, "file": traceOnDisk(t, tc.tr)}
			for _, k := range []int{1, 2, 8} {
				c := cfg
				c.Parallelism.Shards = k
				got, err := uncached.RunNaiveReplayContext(bg, c, tc.tr, IdealNet)
				if err != nil {
					t.Fatalf("shards=%d: %v", k, err)
				}
				replaysEqual(t, tc.name, got, want)
				for name, src := range sources {
					gotSC, err := uncached.RunSelfCorrectionContext(bg, c, src, IdealNet)
					if err != nil || !reflect.DeepEqual(gotSC, wantSC) {
						t.Errorf("%s shards=%d: correction diverges (%v)\n got: %+v\nwant: %+v", name, k, err, gotSC, wantSC)
					}
				}
			}
			for name, src := range sources {
				sum, _, err := RunNaiveReplaySummaryContext(bg, cfg, src, IdealNet)
				if err != nil {
					t.Fatalf("summary from %s: %v", name, err)
				}
				if sum.Makespan != want.Makespan || sum.Cycles != want.Cycles || sum.MeanLatency != want.MeanLatency {
					t.Errorf("summary from %s (%d, %d, %g), want (%d, %d, %g)",
						name, sum.Makespan, sum.Cycles, sum.MeanLatency, want.Makespan, want.Cycles, want.MeanLatency)
				}
			}
		})
	}
}

// singleSourceChain is one node sending a strict program-order chain: every
// event depends on its predecessor, all traffic from node 0.
func singleSourceChain(n int) *Trace {
	tr := &Trace{Nodes: 4, Workload: "chain", RefMakespan: sim.Tick(10 * n)}
	for i := 0; i < n; i++ {
		e := trace.Event{
			ID: trace.EventID(i + 1), Src: 0, Dst: 1 + i%3, Bytes: 16,
			Class: noc.ClassRequest, Kind: trace.KindData,
			Gap: 2, RefInject: sim.Tick(3 * i), RefArrive: sim.Tick(3*i + 7),
		}
		if i > 0 {
			e.Deps = []trace.Dep{{On: trace.EventID(i), Class: trace.DepProgram}}
		}
		tr.Events = append(tr.Events, e)
	}
	return tr
}

// TestStreamExcludedFromFingerprint extends the cache-compatibility contract
// to the read-ahead window: an execution detail that cannot change results
// must not split the result-memo or disk-cache key space.
func TestStreamExcludedFromFingerprint(t *testing.T) {
	base := smallConfig()
	fp0, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	for _, window := range []int{1 << 12, 1 << 20, -1} {
		cfg := base
		cfg.Parallelism.WindowEvents = window
		fp, err := cfg.Fingerprint()
		if err != nil {
			t.Fatalf("window %d: %v", window, err)
		}
		if fp != fp0 {
			t.Errorf("window %d changes fingerprint: %s vs %s", window, fp, fp0)
		}
	}
}

// TestStreamWindowValidation checks the WindowEvents bounds in Config.Validate.
func TestStreamWindowValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Parallelism.WindowEvents = -2
	if err := cfg.Validate(); err == nil {
		t.Error("window below -1 accepted")
	}
	cfg.Parallelism.WindowEvents = 1 << 32
	if err := cfg.Validate(); err == nil {
		t.Error("implausible window accepted")
	}
	for _, w := range []int{-1, 0, 1 << 16} {
		cfg.Parallelism.WindowEvents = w
		if err := cfg.Validate(); err != nil {
			t.Errorf("window=%d rejected: %v", w, err)
		}
	}
}

// TestTraceDigestAgreesAcrossRepresentations: a file written by SaveTrace
// digests identically to the resident trace (the file holds the canonical
// encoding the trace hashes), and distinct traces get distinct digests.
func TestTraceDigestAgreesAcrossRepresentations(t *testing.T) {
	cfg := smallConfig()
	tr, _, err := uncached.CaptureTraceContext(bg, cfg, IdealNet)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	file := traceOnDisk(t, tr).(*trace.FileSource)
	fd, err := file.Digest()
	if err != nil {
		t.Fatalf("file digest: %v", err)
	}
	md, err := tr.Digest()
	if err != nil {
		t.Fatalf("mem digest: %v", err)
	}
	if fd != md {
		t.Errorf("digests differ: file=%s mem=%s", fd, md)
	}
	if len(fd) != len("sha256:")+64 || fd[:7] != "sha256:" {
		t.Errorf("malformed digest %q", fd)
	}
	other := cfg
	other.Workload.Scale = 8
	tr2, _, err := uncached.CaptureTraceContext(bg, other, IdealNet)
	if err != nil {
		t.Fatalf("capture 2: %v", err)
	}
	md2, err := tr2.Digest()
	if err != nil {
		t.Fatal(err)
	}
	if md2 == md {
		t.Error("distinct traces share a digest")
	}
}

// TestSessionStreamReplayCache: corrections through a Session are memoized by
// trace content — a second run of the same file is a cache hit, and the
// resident trace the file encodes (captured without a session, so it has no
// capture key) hits the entry the file computed.
func TestSessionStreamReplayCache(t *testing.T) {
	cfg := smallConfig()
	tr, _, err := uncached.CaptureTraceContext(bg, cfg, IdealNet)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	file := traceOnDisk(t, tr)
	s := NewSession("")

	first, err := s.RunSelfCorrectionContext(bg, cfg, file, Optical)
	if err != nil {
		t.Fatal(err)
	}
	if hits := s.CacheStats().Hits; hits != 0 {
		t.Fatalf("unexpected hits before re-run: %d", hits)
	}
	again, err := s.RunSelfCorrectionContext(bg, cfg, file, Optical)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Error("cached streaming correction differs from computed one")
	}
	if hits := s.CacheStats().Hits; hits != 1 {
		t.Errorf("re-run hits = %d, want 1", hits)
	}
	fromMem, err := s.RunSelfCorrectionContext(bg, cfg, tr, Optical)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, fromMem) {
		t.Error("mem-source run missed the file-source cache entry")
	}
	if hits := s.CacheStats().Hits; hits != 2 {
		t.Errorf("cross-representation hits = %d, want 2", hits)
	}
}
