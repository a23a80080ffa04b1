package core

import (
	"context"
	"errors"
	"fmt"
	"runtime/pprof"
	"strconv"

	"onocsim/internal/config"
	"onocsim/internal/noc"
	"onocsim/internal/prof"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// NetworkFactory builds a fresh instance of the target fabric. Each
// correction iteration replays on a clean network. When the fabric
// implements noc.Resettable the loop builds it once and resets it between
// rounds — observationally identical to a fresh build, without paying the
// full construction (topology wiring, photonic budget) per iteration; other
// fabrics fall back to one build per round.
type NetworkFactory func() noc.Network

// Iteration records the state of the correction loop after one round.
type Iteration struct {
	// Round is 0-based.
	Round int
	// Delta is the largest injection-time change versus the previous
	// round's schedule (Round 0 compares against the zero-load seed).
	Delta sim.Tick
	// Makespan and MeanLatency are this round's estimates.
	Makespan    sim.Tick
	MeanLatency float64
	// Cycles is the fabric time simulated this round.
	Cycles sim.Tick
}

// CorrectionResult is the output of the self-correction loop.
type CorrectionResult struct {
	// Final is the converged replay.
	Final ReplayResult
	// Iterations traces the convergence (experiment R3).
	Iterations []Iteration
	// Converged reports whether the loop met the tolerance before
	// exhausting its iteration budget.
	Converged bool
	// TotalCycles sums fabric cycles across all rounds — the simulation
	// cost the R2 experiment charges to the method.
	TotalCycles sim.Tick
	// ReplayedEvents counts injections actually performed across all
	// rounds. A full-replay loop performs len(tr.Events) per round;
	// incremental rounds resume from frozen-prefix checkpoints and inject
	// only the dirty suffix, so the gap between this and
	// len(tr.Events)×len(Iterations) is the work the checkpointing saved.
	ReplayedEvents int
	// SavedCycles sums the fabric cycles skipped by checkpoint restores
	// (each restore at time t0 saves the t0 cycles of frozen prefix it
	// would otherwise re-simulate). Zero for full-replay loops.
	SavedCycles sim.Tick
}

// SelfCorrect runs the Self-Correction Trace Model: starting from zero-load
// latency estimates, it alternates (a) re-deriving the injection schedule
// from the dependency DAG and (b) measuring realized latencies by replaying
// that schedule on a fresh fabric, until the schedule reaches a fixpoint.
func SelfCorrect(factory NetworkFactory, tr *trace.Trace, cfg config.SCTM) (CorrectionResult, error) {
	res, _, err := SelfCorrectParkableCtx(context.Background(), factory, tr, cfg, 1, nil, nil)
	return res, err
}

// SelfCorrectParkableCtx is Correct on a materialized trace.
func SelfCorrectParkableCtx(ctx context.Context, factory NetworkFactory, tr *trace.Trace, cfg config.SCTM, shards int, seed []sim.Tick, resume *ParkState) (CorrectionResult, *ParkState, error) {
	return Correct(ctx, factory, tr, cfg, shards, 0, seed, resume)
}

// SelfCorrectStream is Correct without cancellation.
func SelfCorrectStream(factory NetworkFactory, src trace.Source, cfg config.SCTM, shards, window int, seed []sim.Tick) (CorrectionResult, error) {
	res, _, err := Correct(context.Background(), factory, src, cfg, shards, window, seed, nil)
	return res, err
}

// ErrParked reports a correction loop stopped cooperatively at a round
// boundary because its context ended before the fixpoint was reached. The
// accompanying CorrectionResult is the valid partial trajectory up to the
// park point (Converged false); callers that memoize results must treat a
// parked result as uncacheable — it reflects where the loop stopped, not
// what the configuration converges to.
var ErrParked = errors.New("core: self-correction parked before convergence")

// ParkState snapshots a parked correction loop at the round boundary it
// stopped at: the derived schedule the next round would have replayed (each
// round's latency estimates are that round's measurements, so the schedule is
// all the loop carries between rounds), the trajectory so far, and the
// live replayer, whose fabric checkpoints (the noc.Checkpointer ladders of
// incremental.go) survive the park intact. Resuming through Correct
// continues the loop exactly where it stopped: the completed run is
// byte-identical to one that never parked, and an incremental resume replays
// only the dirty suffix of its first resumed round instead of starting the
// whole fixpoint from scratch.
//
// A ParkState is bound to the (trace content, SCTM config, fabric) triple that
// produced it, not to the source object that held the trace, and is
// single-use: the replayer inside is not safe for concurrent resumes. Callers
// that stash states must hand each one to at most one resume.
type ParkState struct {
	runner     *replayer
	prev       []sim.Tick
	iterations []Iteration
	final      ReplayResult
	cycles     sim.Tick
}

// Correct runs the self-correction fixpoint over a trace.Source — seeding,
// schedule derivation and every replay round read the source, so a
// file-backed trace is never materialized — with each round's replay split
// across the given number of shards. Results are byte-identical for any
// shard count, any sufficient window (semantics as ReplayScheduleStream) and
// either setting of cfg.Incremental; those choose how rounds execute, never
// what they compute.
//
// seed, when non-nil, supplies the round-0 latency estimates, one per event
// (the analytical fast path computes them from the trace's byte histogram),
// in place of the target fabric's zero-load probe; it is never mutated.
//
// cfg.Incremental keeps frozen-prefix checkpoint ladders between rounds, so
// later rounds skip re-simulating the schedule prefix that did not change
// (only ReplayedEvents/SavedCycles differ). It takes effect on a resident
// trace; a file-backed source keeps its rounds full — bounded residency is
// its point.
//
// Cancellation is cooperative: the loop checks ctx at every round boundary —
// the same boundaries the ladder checkpoints at — and, once ctx is done,
// parks instead of starting another round. A parked run returns the partial
// CorrectionResult, a non-nil *ParkState, and an error wrapping ErrParked
// and ctx's error. Replay rounds themselves are never interrupted
// mid-flight, so a park costs at most one round of latency and the partial
// trajectory is byte-identical to a prefix of the uncancelled run's. Passing
// the state back as resume (same trace content, config and fabric kind, in
// src of either residency) re-enters the loop at the parked round boundary
// instead of restarting — skipping seeding and the initial schedule
// derivation, with the trajectory so far already in place; seed is then
// ignored, and every resumed pass reads src.
func Correct(ctx context.Context, factory NetworkFactory, src trace.Source, cfg config.SCTM, shards, window int, seed []sim.Tick, resume *ParkState) (CorrectionResult, *ParkState, error) {
	n := src.Meta().NumEvents
	opts := ScheduleOptions{
		DisableSyncDeps:   cfg.DisableSyncDeps,
		DisableCausalDeps: cfg.DisableCausalDeps,
	}

	var out CorrectionResult
	var runner *replayer
	var prev []sim.Tick
	// finish fills the work counters at every successful exit. Full rounds
	// charge the whole trace; a round resumed from a checkpoint only the
	// dirty suffix it injected.
	finish := func() {
		out.ReplayedEvents, out.SavedCycles = runner.replayed, runner.saved
	}
	// Profiler labels tag every sample with the round and phase so a pprof
	// capture of a correction run decomposes into schedule derivation versus
	// replay, per round (round -1 renders as "seed"). Label bookkeeping
	// allocates per pprof.Do call, so unprofiled runs — the common case, and
	// the one the allocation gate measures — skip it entirely.
	labeled := func(round int, phase string, fn func() error) error {
		if !prof.CPUActive() {
			return fn()
		}
		r := "seed"
		if round >= 0 {
			r = strconv.Itoa(round)
		}
		var err error
		pprof.Do(context.Background(), pprof.Labels("round", r, "phase", phase), func(context.Context) {
			err = fn()
		})
		return err
	}
	if resume != nil {
		if len(resume.prev) != n {
			return CorrectionResult{}, nil, fmt.Errorf("core: resume state sized for %d events, trace has %d", len(resume.prev), n)
		}
		if len(resume.iterations) >= cfg.MaxIterations {
			return CorrectionResult{}, nil, fmt.Errorf("core: resume state has %d rounds, budget is %d", len(resume.iterations), cfg.MaxIterations)
		}
		// The parked replayer carries the fabric checkpoints the resumed
		// rounds restore from, and the work counters so far.
		runner = resume.runner
		runner.read(src, window)
		prev = resume.prev
		out.Iterations = append([]Iteration(nil), resume.iterations...)
		out.Final = resume.final
		out.TotalCycles = resume.cycles
	} else {
		runner = newReplayer(factory, src, shards, window)
		runner.ladder = cfg.Incremental && resident(src)
		// Round-0 latencies: the caller's seed, else the target fabric's
		// zero-load estimate per message, filled in by the pass that derives
		// the round-0 schedule.
		lat := seed
		var zeroLoad func(e *trace.Event) sim.Tick
		if lat == nil {
			lat = make([]sim.Tick, n)
			probe := runner.fabric(0)
			zeroLoad = func(e *trace.Event) sim.Tick { return probe.ZeroLoadLatency(e.Src, e.Dst, e.Bytes) }
		}
		if err := labeled(-1, "schedule", func() (err error) {
			prev, err = schedule(src, lat, opts, zeroLoad)
			return err
		}); err != nil {
			return CorrectionResult{}, nil, fmt.Errorf("core: deriving schedule: %w", err)
		}
	}
	for round := len(out.Iterations); round < cfg.MaxIterations; round++ {
		// Park point: the round boundary is where the ladder checkpoints, so
		// stopping here loses at most the round that was about to start,
		// never work already done. The partial result is returned alongside
		// the error — callers decide whether the trajectory so far is worth
		// reporting — together with the state a later call can resume from.
		if cause := ctx.Err(); cause != nil {
			finish()
			state := &ParkState{
				runner:     runner,
				prev:       prev,
				iterations: append([]Iteration(nil), out.Iterations...),
				final:      out.Final,
				cycles:     out.TotalCycles,
			}
			return out, state, fmt.Errorf("%w after %d of %d rounds: %w",
				ErrParked, len(out.Iterations), cfg.MaxIterations, cause)
		}
		var res ReplayResult
		if err := labeled(round, "replay", func() (err error) {
			res, err = runner.run(prev)
			return err
		}); err != nil {
			return CorrectionResult{}, nil, fmt.Errorf("core: correction round %d: %w", round, err)
		}
		out.TotalCycles += res.Cycles
		// The measured latencies are the next round's estimates, verbatim.
		var next []sim.Tick
		if err := labeled(round, "schedule", func() (err error) {
			next, err = ScheduleStream(src, res.Latencies(), opts)
			return err
		}); err != nil {
			return CorrectionResult{}, nil, fmt.Errorf("core: correction round %d: %w", round, err)
		}
		delta := MaxScheduleDelta(next, prev)
		out.Iterations = append(out.Iterations, Iteration{
			Round:       round,
			Delta:       delta,
			Makespan:    res.Makespan,
			MeanLatency: res.MeanLatency,
			Cycles:      res.Cycles,
		})
		prevMakespan := sim.Tick(-1)
		if round > 0 {
			prevMakespan = out.Iterations[round-1].Makespan
		}
		out.Final = res
		if delta <= sim.Tick(cfg.ToleranceCycles) {
			out.Converged = true
			finish()
			return out, nil, nil
		}
		// Aggregate-stability criterion: under contention the per-event
		// schedule keeps jittering by a few hundred cycles while the
		// makespan has long settled; declare convergence when the
		// makespan moves less than the configured fraction.
		if cfg.MakespanTolerance > 0 && prevMakespan > 0 {
			diff := res.Makespan - prevMakespan
			if diff < 0 {
				diff = -diff
			}
			if float64(diff) <= cfg.MakespanTolerance*float64(res.Makespan) {
				out.Converged = true
				finish()
				return out, nil, nil
			}
		}
		prev = next
	}
	finish()
	return out, nil, nil
}
