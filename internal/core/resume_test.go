package core

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"onocsim/internal/config"
)

// TestResumeCompletesIdenticalToUninterrupted parks the loop after k rounds,
// resumes it from the returned state, and requires the completed result to
// be deep-equal to an uninterrupted run's — trajectory, final replay, cycle
// and event counters included. The resumed loop reuses the parked runner, so
// the continuation is literally the same execution the uninterrupted run
// performs.
func TestResumeCompletesIdenticalToUninterrupted(t *testing.T) {
	tr := chainTrace()
	base := neverConverge(config.Default().SCTM)
	base.MaxIterations = 8

	for _, tc := range []struct {
		name   string
		cfg    config.SCTM
		shards int
	}{
		{"serial", base, 1},
		{"sharded", base, 2},
		{"incremental", func() config.SCTM { c := base; c.Incremental = true; return c }(), 1},
		{"incremental-sharded", func() config.SCTM { c := base; c.Incremental = true; return c }(), 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full, _, err := SelfCorrectParkableCtx(context.Background(), idealFactory(4, 20), tr, tc.cfg, tc.shards, chainSeed, nil)
			if err != nil {
				t.Fatal(err)
			}

			const parkAfter = 3
			ctx := &countdownCtx{Context: context.Background(), remaining: parkAfter}
			parked, state, err := SelfCorrectParkableCtx(ctx, idealFactory(4, 20), tr, tc.cfg, tc.shards, chainSeed, nil)
			if !errors.Is(err, ErrParked) {
				t.Fatalf("err = %v, want ErrParked", err)
			}
			if state == nil {
				t.Fatal("parked run returned no resume state")
			}
			if len(state.iterations) != parkAfter {
				t.Fatalf("state holds %d rounds, want %d", len(state.iterations), parkAfter)
			}
			if len(parked.Iterations) != parkAfter {
				t.Fatalf("parked after %d rounds, want %d", len(parked.Iterations), parkAfter)
			}

			resumed, state2, err := SelfCorrectParkableCtx(context.Background(), idealFactory(4, 20), tr, tc.cfg, tc.shards, nil, state)
			if err != nil {
				t.Fatal(err)
			}
			if state2 != nil {
				t.Fatalf("completed resume returned state: %+v", state2)
			}
			if !reflect.DeepEqual(resumed, full) {
				t.Fatalf("resumed result diverged from uninterrupted run:\n got %+v\nwant %+v", resumed, full)
			}
		})
	}
}

// TestResumeCanParkAgain parks, resumes with another counting-down context,
// parks again further along, and finally completes — the ladder of partial
// runs still lands on the uninterrupted result.
func TestResumeCanParkAgain(t *testing.T) {
	tr := chainTrace()
	cfg := neverConverge(config.Default().SCTM)
	cfg.MaxIterations = 8

	full, _, err := SelfCorrectParkableCtx(context.Background(), idealFactory(4, 20), tr, cfg, 1, chainSeed, nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx1 := &countdownCtx{Context: context.Background(), remaining: 2}
	_, state, err := SelfCorrectParkableCtx(ctx1, idealFactory(4, 20), tr, cfg, 1, chainSeed, nil)
	if !errors.Is(err, ErrParked) || state == nil {
		t.Fatalf("first park: err=%v state=%v", err, state)
	}

	ctx2 := &countdownCtx{Context: context.Background(), remaining: 3}
	parked2, state2, err := SelfCorrectParkableCtx(ctx2, idealFactory(4, 20), tr, cfg, 1, nil, state)
	if !errors.Is(err, ErrParked) || state2 == nil {
		t.Fatalf("second park: err=%v state=%v", err, state2)
	}
	if got := len(parked2.Iterations); got != 5 {
		t.Fatalf("second park at %d rounds, want 5 (2 resumed + 3 fresh)", got)
	}
	if !reflect.DeepEqual(parked2.Iterations, full.Iterations[:5]) {
		t.Fatal("second parked trajectory diverged from uninterrupted prefix")
	}

	resumed, _, err := SelfCorrectParkableCtx(context.Background(), idealFactory(4, 20), tr, cfg, 1, nil, state2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, full) {
		t.Fatalf("twice-parked resume diverged from uninterrupted run:\n got %+v\nwant %+v", resumed, full)
	}
}

// TestResumeIncrementalReplaysFewerEvents pins the point of carrying the
// live runner through the park: an incremental loop's frozen-prefix
// checkpoints survive, so the resumed rounds replay only dirty suffixes.
// Restarting from scratch after a park would pay the full-replay cost again.
func TestResumeIncrementalReplaysFewerEvents(t *testing.T) {
	tr := chainTrace()
	cfg := neverConverge(config.Default().SCTM)
	cfg.MaxIterations = 8
	cfg.Incremental = true

	full, _, err := SelfCorrectParkableCtx(context.Background(), idealFactory(4, 20), tr, cfg, 1, chainSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	fullReplay := len(tr.Events) * cfg.MaxIterations
	if full.ReplayedEvents >= fullReplay {
		t.Fatalf("incremental run replayed %d events, full replay is %d — checkpointing inert", full.ReplayedEvents, fullReplay)
	}

	ctx := &countdownCtx{Context: context.Background(), remaining: 3}
	_, state, err := SelfCorrectParkableCtx(ctx, idealFactory(4, 20), tr, cfg, 1, chainSeed, nil)
	if !errors.Is(err, ErrParked) || state == nil {
		t.Fatalf("park: err=%v state=%v", err, state)
	}
	resumed, _, err := SelfCorrectParkableCtx(context.Background(), idealFactory(4, 20), tr, cfg, 1, nil, state)
	if err != nil {
		t.Fatal(err)
	}
	// The counter is cumulative across park and resume and must equal the
	// uninterrupted run's — proof the resumed rounds did not degrade to
	// full replays.
	if resumed.ReplayedEvents != full.ReplayedEvents {
		t.Fatalf("resumed run replayed %d events, uninterrupted run %d", resumed.ReplayedEvents, full.ReplayedEvents)
	}
}

// TestResumeRejectsBadState guards the single-use contract: resume state
// whose geometry does not match the trace, or that has already exhausted the
// iteration budget, is refused rather than silently corrupting the loop.
func TestResumeRejectsBadState(t *testing.T) {
	tr := chainTrace()
	cfg := neverConverge(config.Default().SCTM)
	cfg.MaxIterations = 3

	ctx := &countdownCtx{Context: context.Background(), remaining: 2}
	_, state, err := SelfCorrectParkableCtx(ctx, idealFactory(4, 20), tr, cfg, 1, chainSeed, nil)
	if !errors.Is(err, ErrParked) || state == nil {
		t.Fatalf("park: err=%v state=%v", err, state)
	}

	// Shrinking the budget below the completed rounds invalidates the state.
	small := cfg
	small.MaxIterations = 2
	if _, _, err := SelfCorrectParkableCtx(context.Background(), idealFactory(4, 20), tr, small, 1, nil, state); err == nil {
		t.Fatal("resume with exhausted iteration budget succeeded")
	}
}
