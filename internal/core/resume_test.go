package core

import (
	"context"
	"errors"
	"reflect"
	"slices"
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
	tr := slowTrace()
	base := neverConverge()

	for _, tc := range []struct {
		name      string
		cfg       config.SCTM
		shards    int
		parkAfter int
	}{
		{"serial", base, 1, 3},
		{"sharded", base, 2, 3},
		{"incremental", func() config.SCTM { c := base; c.Incremental = true; return c }(), 1, 3},
		{"incremental-sharded", func() config.SCTM { c := base; c.Incremental = true; return c }(), 2, 3},
		// Parked after the coupled pass, before round 0: the resume state
		// carries the pass's charge.
		{"coupled", func() config.SCTM { c := base; c.Seed = "coupled"; return c }(), 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			full, _, err := SelfCorrectParkableCtx(context.Background(), contendedIdeal, tr, tc.cfg, tc.shards, nil, nil)
			if err != nil {
				t.Fatal(err)
			}

			ctx := &countdownCtx{Context: context.Background(), remaining: tc.parkAfter}
			parked, state, err := SelfCorrectParkableCtx(ctx, contendedIdeal, tr, tc.cfg, tc.shards, nil, nil)
			if !errors.Is(err, ErrParked) {
				t.Fatalf("err = %v, want ErrParked", err)
			}
			if state == nil {
				t.Fatal("parked run returned no resume state")
			}
			if len(state.iterations) != tc.parkAfter {
				t.Fatalf("state holds %d rounds, want %d", len(state.iterations), tc.parkAfter)
			}
			if len(parked.Iterations) != tc.parkAfter {
				t.Fatalf("parked after %d rounds, want %d", len(parked.Iterations), tc.parkAfter)
			}

			resumed, state2, err := SelfCorrectParkableCtx(context.Background(), contendedIdeal, tr, tc.cfg, tc.shards, nil, state)
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

// TestParkedResultSurvivesResume: a parked run's partial result shares its
// vectors with the loop's storage, the arrival vector among them, and the
// resume that completes the loop must leave it as it was parked.
func TestParkedResultSurvivesResume(t *testing.T) {
	tr := slowTrace()
	base := neverConverge()
	for _, tc := range []struct {
		name      string
		cfg       config.SCTM
		shards    int
		parkAfter int
	}{
		{"serial", base, 1, 3},
		{"sharded", base, 2, 3},
		{"coupled", func() config.SCTM { c := base; c.Seed = "coupled"; return c }(), 1, 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			ctx := &countdownCtx{Context: context.Background(), remaining: tc.parkAfter}
			parked, state, err := SelfCorrectParkableCtx(ctx, contendedIdeal, tr, tc.cfg, tc.shards, nil, nil)
			if !errors.Is(err, ErrParked) || state == nil {
				t.Fatalf("park: err=%v state=%v", err, state)
			}
			want := parked.Final
			want.Inject, want.Arrive = slices.Clone(want.Inject), slices.Clone(want.Arrive)
			if want.NetStats != nil {
				st := *want.NetStats
				want.NetStats = &st
			}
			if _, _, err := SelfCorrectParkableCtx(context.Background(), contendedIdeal, tr, tc.cfg, tc.shards, nil, state); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(parked.Final, want) {
				t.Fatal("resuming the loop rewrote the parked result's Final")
			}
		})
	}
}

// TestResumeCanParkAgain parks, resumes with another counting-down context,
// parks again further along, and finally completes — the ladder of partial
// runs still lands on the uninterrupted result.
func TestResumeCanParkAgain(t *testing.T) {
	tr := slowTrace()
	cfg := neverConverge()

	full, _, err := SelfCorrectParkableCtx(context.Background(), contendedIdeal, tr, cfg, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}

	ctx1 := &countdownCtx{Context: context.Background(), remaining: 2}
	_, state, err := SelfCorrectParkableCtx(ctx1, contendedIdeal, tr, cfg, 1, nil, nil)
	if !errors.Is(err, ErrParked) || state == nil {
		t.Fatalf("first park: err=%v state=%v", err, state)
	}

	ctx2 := &countdownCtx{Context: context.Background(), remaining: 3}
	parked2, state2, err := SelfCorrectParkableCtx(ctx2, contendedIdeal, tr, cfg, 1, nil, state)
	if !errors.Is(err, ErrParked) || state2 == nil {
		t.Fatalf("second park: err=%v state=%v", err, state2)
	}
	if got := len(parked2.Iterations); got != 5 {
		t.Fatalf("second park at %d rounds, want 5 (2 resumed + 3 fresh)", got)
	}
	if !reflect.DeepEqual(parked2.Iterations, full.Iterations[:5]) {
		t.Fatal("second parked trajectory diverged from uninterrupted prefix")
	}

	resumed, _, err := SelfCorrectParkableCtx(context.Background(), contendedIdeal, tr, cfg, 1, nil, state2)
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
	tr := slowTrace()
	cfg := neverConverge()
	cfg.Incremental = true

	full, _, err := SelfCorrectParkableCtx(context.Background(), contendedIdeal, tr, cfg, 1, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	fullReplay := len(tr.Events) * cfg.MaxIterations
	if full.ReplayedEvents >= fullReplay {
		t.Fatalf("incremental run replayed %d events, full replay is %d — checkpointing inert", full.ReplayedEvents, fullReplay)
	}

	ctx := &countdownCtx{Context: context.Background(), remaining: 3}
	_, state, err := SelfCorrectParkableCtx(ctx, contendedIdeal, tr, cfg, 1, nil, nil)
	if !errors.Is(err, ErrParked) || state == nil {
		t.Fatalf("park: err=%v state=%v", err, state)
	}
	resumed, _, err := SelfCorrectParkableCtx(context.Background(), contendedIdeal, tr, cfg, 1, nil, state)
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
	tr := slowTrace()
	cfg := neverConverge()
	cfg.MaxIterations = 3

	ctx := &countdownCtx{Context: context.Background(), remaining: 2}
	_, state, err := SelfCorrectParkableCtx(ctx, contendedIdeal, tr, cfg, 1, nil, nil)
	if !errors.Is(err, ErrParked) || state == nil {
		t.Fatalf("park: err=%v state=%v", err, state)
	}

	// Shrinking the budget below the completed rounds invalidates the state.
	small := cfg
	small.MaxIterations = 2
	if _, _, err := SelfCorrectParkableCtx(context.Background(), contendedIdeal, tr, small, 1, nil, state); err == nil {
		t.Fatal("resume with exhausted iteration budget succeeded")
	}
}
