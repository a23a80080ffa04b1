package onocsim

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"onocsim/internal/simcache"
	"onocsim/internal/trace"
)

// A replay is memoized by where its trace came from when the session captured
// it, and by its content otherwise: a transformed, loaded or hand-built trace
// is keyed by its digest. R14 replays ScaleGapsWhere transforms of one capture
// at several scales, and keying them by their parent would serve every scale
// the first one's result, so each scale is an entry of its own; a trace whose
// content the session has seen is a hit. A nil session caches nothing.
func TestSessionForeignTraceMemoizedByContent(t *testing.T) {
	s := NewSession("")
	cfg := smallConfig()
	tr, _, err := s.CaptureTraceContext(bg, cfg, IdealNet)
	if err != nil {
		t.Fatal(err)
	}
	if k := uncached.key(cfg, Optical, simcache.OpNaive, tr); k.cache != nil {
		t.Fatal("nil session resolved a cache slot")
	}
	all := func(*trace.Event) bool { return true }
	x2, err2 := tr.ScaleGapsWhere(2, all)
	x3, err3 := tr.ScaleGapsWhere(3, all)
	if err := errors.Join(err2, err3); err != nil {
		t.Fatal(err)
	}
	handBuilt := &Trace{Nodes: tr.Nodes, Workload: tr.Workload, RefMakespan: tr.RefMakespan, Events: tr.Events}
	for i, tc := range []struct {
		tr  *Trace
		hit bool
	}{{tr, false}, {x2, false}, {x3, false}, {handBuilt, false}, {handBuilt, true}, {x3, true}, {tr, true}} {
		before := s.CacheStats()
		if _, err := s.RunNaiveReplayContext(bg, cfg, tc.tr, Optical); err != nil {
			t.Fatal(err)
		}
		after := s.CacheStats()
		if hit := after.Hits == before.Hits+1 && after.Misses == before.Misses; hit != tc.hit {
			t.Fatalf("request %d (%s): hit %v, want %v: %+v -> %+v", i, tc.tr.Workload, hit, tc.hit, before, after)
		}
	}
}

// A context that dies mid-correction parks the loop: the session returns the
// partial trajectory with ErrParked and caches nothing, so a later
// uncancelled run computes the full result fresh.
func TestSessionSelfCorrectionParksAndNeverCachesPartial(t *testing.T) {
	s := NewSession("")
	cfg := smallConfig()
	tr, _, err := s.CaptureTraceContext(bg, cfg, IdealNet)
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := s.RunSelfCorrectionContext(ctx, cfg, tr, Optical)
	if !errors.Is(err, ErrParked) && !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled correction returned %v", err)
	}
	if errors.Is(err, ErrParked) && res.Converged {
		t.Fatal("parked result claims convergence")
	}
	misses := s.CacheStats().Misses
	full, err := s.RunSelfCorrectionContext(bg, cfg, tr, Optical)
	if err != nil {
		t.Fatal(err)
	}
	if !full.Converged {
		t.Fatalf("full run did not converge: %+v", full)
	}
	if got := s.CacheStats().Misses; got == misses {
		t.Fatal("full run after park was served from cache — the partial leaked in")
	}
	// And the converged result is cached now.
	hits := s.CacheStats().Hits
	if _, err := s.RunSelfCorrectionContext(bg, cfg, tr, Optical); err != nil {
		t.Fatal(err)
	}
	if got := s.CacheStats().Hits; got != hits+1 {
		t.Fatalf("converged result not cached: hits %d -> %d", hits, got)
	}
}

// resumePollCtx reports Canceled after a fixed number of Err polls — the
// session-level twin of internal/core's countdownCtx. The correction loop
// polls once per round boundary (plus one poll at slot admission), so the
// budget selects the round the park lands on.
type resumePollCtx struct {
	context.Context
	remaining int
}

func (c *resumePollCtx) Err() error {
	if c.remaining > 0 {
		c.remaining--
		return nil
	}
	return context.Canceled
}

// A parked session correction stashes its resume state under the cache key;
// the next identical request resumes from the parked round instead of
// re-running from scratch, and completes to the exact result an
// uninterrupted session computes. The resume is proven — not just the
// equality — by giving the second call an Err-poll budget large enough for
// the remaining rounds but far too small for a from-scratch rerun. A trace
// file resumes the same way, reading the resuming request's file: the one
// the parked request named is gone by then.
func TestSessionResumesParkedCorrection(t *testing.T) {
	cfg := smallConfig()
	cfg.SCTM.MaxIterations = 10
	cfg.SCTM.ToleranceCycles = 0
	cfg.SCTM.MakespanTolerance = 0

	ref := NewSession("")
	tr, _, err := ref.CaptureTraceContext(bg, cfg, IdealNet)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ref.RunSelfCorrectionContext(bg, cfg, tr, Optical)
	if err != nil {
		t.Fatal(err)
	}
	if full.Converged || len(full.Iterations) != cfg.SCTM.MaxIterations {
		t.Fatalf("reference run converged early: %+v", full)
	}

	for _, name := range []string{"captured", "file"} {
		t.Run(name, func(t *testing.T) {
			s := NewSession("")
			tr2, _, err := s.CaptureTraceContext(bg, cfg, IdealNet)
			if err != nil {
				t.Fatal(err)
			}
			parkOn, resumeOn, parkPath := TraceSource(tr2), TraceSource(tr2), ""
			if name == "file" {
				parkPath = filepath.Join(t.TempDir(), "parked.sctm")
				if err := SaveTrace(parkPath, tr); err != nil {
					t.Fatal(err)
				}
				if parkOn, err = OpenTraceFile(parkPath); err != nil {
					t.Fatal(err)
				}
				resumeOn = traceOnDisk(t, tr)
			}
			ctx := &resumePollCtx{Context: context.Background(), remaining: 5}
			parked, err := s.RunSelfCorrectionContext(ctx, cfg, parkOn, Optical)
			if !errors.Is(err, ErrParked) {
				t.Fatalf("err = %v, want ErrParked", err)
			}
			r := len(parked.Iterations)
			if r == 0 || r >= cfg.SCTM.MaxIterations {
				t.Fatalf("park landed at %d rounds, want mid-loop", r)
			}
			if parkPath != "" {
				if err := os.Remove(parkPath); err != nil {
					t.Fatal(err)
				}
			}

			// Budget: remaining rounds plus admission/boundary slack. A restart
			// from round zero would need MaxIterations+1 polls and park again.
			budget := (cfg.SCTM.MaxIterations - r) + 2
			if budget >= cfg.SCTM.MaxIterations+1 {
				t.Fatalf("park too late to distinguish resume from restart: r=%d", r)
			}
			ctx2 := &resumePollCtx{Context: context.Background(), remaining: budget}
			resumed, err := s.RunSelfCorrectionContext(ctx2, cfg, resumeOn, Optical)
			if err != nil {
				t.Fatalf("resumed run failed (did the session restart from scratch?): %v", err)
			}
			if !reflect.DeepEqual(resumed, full) {
				t.Fatalf("resumed result diverged from uninterrupted run:\n got %+v\nwant %+v", resumed, full)
			}

			// The completed resume is cached like any converged-or-exhausted run.
			hits := s.CacheStats().Hits
			if _, err := s.RunSelfCorrectionContext(bg, cfg, resumeOn, Optical); err != nil {
				t.Fatal(err)
			}
			if got := s.CacheStats().Hits; got != hits+1 {
				t.Fatalf("resumed result not cached: hits %d -> %d", hits, got)
			}
		})
	}
}

// A correction honours its context the same way whether its trace is resident
// or streamed from a file: once the context reports cancellation the loop
// parks at the next round boundary with ErrParked, and the rounds it completed
// are a byte-identical prefix of the uncancelled run's. The poll budget pins
// the boundary: one poll at slot admission, then one per round.
func TestStreamedCorrectionParksAtRoundBoundary(t *testing.T) {
	cfg := smallConfig()
	cfg.SCTM.MaxIterations = 10
	cfg.SCTM.ToleranceCycles = 0
	cfg.SCTM.MakespanTolerance = 0
	tr, _, err := uncached.CaptureTraceContext(bg, cfg, IdealNet)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]TraceSource{"captured": tr, "file": traceOnDisk(t, tr)} {
		for _, shards := range []int{1, 4} {
			cfg.Parallelism.Shards = shards
			full, err := uncached.RunSelfCorrectionContext(bg, cfg, src, Optical)
			if err != nil {
				t.Fatal(err)
			}
			if full.Converged || len(full.Iterations) != cfg.SCTM.MaxIterations {
				t.Fatalf("%s shards=%d: reference run converged early: %+v", name, shards, full)
			}
			const rounds = 4
			ctx := &resumePollCtx{Context: context.Background(), remaining: 1 + rounds}
			parked, err := uncached.RunSelfCorrectionContext(ctx, cfg, src, Optical)
			if !errors.Is(err, ErrParked) || parked.Converged || !reflect.DeepEqual(parked.Iterations, full.Iterations[:rounds]) ||
				parked.ReplayedEvents != rounds*len(tr.Events) {
				t.Fatalf("%s shards=%d: park (err %v, %d events replayed) is not the first %d rounds of the full run:\n got %+v\nwant %+v",
					name, shards, err, parked.ReplayedEvents, rounds, parked.Iterations, full.Iterations[:rounds])
			}

			// Through a session the partial trajectory still reaches the caller,
			// and is not cached: the next, uncancelled request runs to the end.
			s := NewSession("")
			ctx = &resumePollCtx{Context: context.Background(), remaining: 1 + rounds}
			viaSession, err := s.RunSelfCorrectionContext(ctx, cfg, src, Optical)
			if !errors.Is(err, ErrParked) || !reflect.DeepEqual(viaSession.Iterations, parked.Iterations) {
				t.Fatalf("%s shards=%d: session park: err = %v, %d rounds", name, shards, err, len(viaSession.Iterations))
			}
			again, err := s.RunSelfCorrectionContext(context.Background(), cfg, src, Optical)
			if err != nil || !reflect.DeepEqual(again, full) {
				t.Fatalf("%s shards=%d: run after a park: err = %v, %d rounds", name, shards, err, len(again.Iterations))
			}
		}
	}
}
