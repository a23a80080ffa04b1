package core

import (
	"context"
	"errors"
	"path/filepath"
	"reflect"
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/noc"
	"onocsim/internal/trace"
)

// countdownCtx reports Canceled after a fixed number of Err polls, letting a
// test park the correction loop at an exact round boundary.
type countdownCtx struct {
	context.Context
	remaining int
}

func (c *countdownCtx) Err() error {
	if c.remaining > 0 {
		c.remaining--
		return nil
	}
	return context.Canceled
}

// slowTrace is a correction with rounds to park between: from the
// zero-load seed on contendedIdeal it first reaches its fixpoint in round 7
// (round deltas 29 16 8 6 6 5 6 0).
func slowTrace() *trace.Trace { return randomTrace(4, 300, 16) }

// contendedIdeal is a 16-node ideal fabric of 15-cycle latency whose 16-byte
// ports serialize, so the schedule feeds back into contention.
func contendedIdeal() noc.Network { return noc.NewIdeal(16, 15, 16) }

// neverConverge is a loop config under which slowTrace always runs its full
// budget: the makespan criterion is off, and 7 rounds end one short of the
// fixpoint.
func neverConverge() config.SCTM {
	cfg := config.Default().SCTM
	cfg.MakespanTolerance = 0
	cfg.MaxIterations = 7
	return cfg
}

func TestSelfCorrectParksOnDeadContext(t *testing.T) {
	tr := chainTrace()
	cfg := config.Default().SCTM
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, _, err := SelfCorrectParkableCtx(ctx, idealFactory(4, 20), tr, cfg, 1, nil, nil)
	if !errors.Is(err, ErrParked) {
		t.Fatalf("err = %v, want ErrParked", err)
	}
	if len(res.Iterations) != 0 || res.Converged {
		t.Fatalf("dead-context park ran rounds: %+v", res)
	}
}

// Parking returns the valid partial trajectory: the parked run's iterations
// are byte-identical to a prefix of the uncancelled run's, whether the trace
// is resident or decoded from a file.
func TestSelfCorrectParkedPrefixMatchesFullRun(t *testing.T) {
	tr := slowTrace()
	cfg := neverConverge()

	path := filepath.Join(t.TempDir(), "slow.sctm")
	if err := trace.SaveFile(path, tr); err != nil {
		t.Fatal(err)
	}
	file, err := trace.NewFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	for name, src := range map[string]trace.Source{"mem": tr, "file": file} {
		full, _, err := Correct(context.Background(), contendedIdeal, src, cfg, 1, 0, nil, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if full.Converged || len(full.Iterations) != cfg.MaxIterations {
			t.Fatalf("%s: reference run unexpectedly converged: %+v", name, full)
		}

		const parkAfter = 3
		ctx := &countdownCtx{Context: context.Background(), remaining: parkAfter}
		parked, state, err := Correct(ctx, contendedIdeal, src, cfg, 1, 0, nil, nil, nil, nil)
		if !errors.Is(err, ErrParked) {
			t.Fatalf("%s: err = %v, want ErrParked", name, err)
		}
		if parked.Converged {
			t.Fatalf("%s: parked run claims convergence", name)
		}
		if len(parked.Iterations) != parkAfter || len(state.iterations) != parkAfter {
			t.Fatalf("%s: parked after %d rounds (state: %d), want %d", name, len(parked.Iterations), len(state.iterations), parkAfter)
		}
		if !reflect.DeepEqual(parked.Iterations, full.Iterations[:parkAfter]) {
			t.Fatalf("%s: parked trajectory diverged:\n got %+v\nwant %+v", name, parked.Iterations, full.Iterations[:parkAfter])
		}
		if parked.Final.Makespan != full.Iterations[parkAfter-1].Makespan {
			t.Fatalf("%s: parked Final.Makespan = %d, want round %d's %d",
				name, parked.Final.Makespan, parkAfter-1, full.Iterations[parkAfter-1].Makespan)
		}
		// Work counters account for exactly the rounds performed.
		if parked.ReplayedEvents != len(tr.Events)*parkAfter {
			t.Fatalf("%s: ReplayedEvents = %d, want %d", name, parked.ReplayedEvents, len(tr.Events)*parkAfter)
		}
	}
}

// Polling a context that never ends changes nothing: a cancellable but live
// context yields the Background result, and no park state, for every runner
// configuration.
func TestSelfCorrectCtxBackgroundIdentical(t *testing.T) {
	tr := chainTrace()
	cfg := config.Default().SCTM
	cfg.MakespanTolerance = 0
	live, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, shards := range []int{1, 2} {
		want, _, err := SelfCorrectParkableCtx(context.Background(), idealFactory(4, 20), tr, cfg, shards, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		got, state, err := SelfCorrectParkableCtx(live, idealFactory(4, 20), tr, cfg, shards, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		if state != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("shards=%d: live-context path diverged (state %v):\n got %+v\nwant %+v", shards, state, got, want)
		}
	}
}
