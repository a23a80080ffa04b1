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
// fabrics fall back to one build per round, which an overlapped round makes
// on its own goroutine, so a factory must be safe to call concurrently.
type NetworkFactory func() noc.Network

// Iteration records the state of the correction loop after one round.
type Iteration struct {
	// Round is 0-based.
	Round int
	// Delta is the largest injection-time change versus the previous
	// round's schedule (Round 0 compares against the seed schedule).
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
	// Converged reports whether the loop reached its fixpoint or met the
	// makespan tolerance before exhausting its iteration budget.
	Converged bool
	// TotalCycles sums fabric cycles across all rounds — the simulation
	// cost the R2 experiment charges to the method.
	TotalCycles sim.Tick
	// ReplayedEvents counts injections performed across all rounds: the
	// trace's event count per round, and once more for a coupled seed's
	// pass.
	ReplayedEvents int
}

// SelfCorrect runs the Self-Correction Trace Model: starting from the round-0
// latencies cfg.SeedMode() names, it alternates (a) re-deriving the injection schedule
// from the dependency DAG and (b) measuring realized latencies by replaying
// that schedule on a fresh fabric, until the schedule reaches a fixpoint.
func SelfCorrect(factory NetworkFactory, tr *trace.Trace, cfg config.SCTM) (CorrectionResult, error) {
	res, _, err := SelfCorrectParkableCtx(context.Background(), factory, tr, cfg, 1, nil, nil)
	return res, err
}

// SelfCorrectParkableCtx is Correct on a materialized trace, its rounds run
// one after another.
func SelfCorrectParkableCtx(ctx context.Context, factory NetworkFactory, tr *trace.Trace, cfg config.SCTM, shards int, seed []sim.Tick, resume *ParkState) (CorrectionResult, *ParkState, error) {
	return Correct(ctx, factory, tr, cfg, shards, 0, seed, resume, nil, nil)
}

// SelfCorrectStream is Correct without cancellation, its rounds run one after
// another.
func SelfCorrectStream(factory NetworkFactory, src trace.Source, cfg config.SCTM, shards, window int, seed []sim.Tick) (CorrectionResult, error) {
	res, _, err := Correct(context.Background(), factory, src, cfg, shards, window, seed, nil, nil, nil)
	return res, err
}

// ErrParked reports a correction loop stopped cooperatively at a round
// boundary because its context ended before the fixpoint was reached. The
// accompanying CorrectionResult is the valid partial trajectory up to the
// park point (Converged false); callers that memoize results must treat a
// parked result as uncacheable — it reflects where the loop stopped, not
// what the configuration converges to.
var ErrParked = errors.New("core: self-correction parked before convergence")

// ParkState is a parked correction loop at the round boundary it stopped at,
// as plain data: the derived schedule the next round would have replayed
// (each round's latency estimates are that round's measurements, so the
// schedule is all the loop carries between rounds), the trajectory so far,
// and the work counters. It holds no fabric. Resuming through Correct builds
// a new replayer and continues the loop exactly where it stopped: every round
// replays in full from cycle zero, so the completed run is byte-identical to
// one that never parked.
//
// The parked result's Final shares its vectors with the loop's storage, and
// the resumed loop leaves them as they were: it replays into its own arrival
// vector and derives into a buffer of its own, then into the parked schedule.
//
// A ParkState is bound to the (trace content, SCTM config, fabric) triple that
// produced it, not to the source object that held the trace, and is
// single-use: its resume overwrites the parked schedule. Callers that stash
// states must hand each one to at most one resume.
type ParkState struct {
	prev       []sim.Tick
	iterations []Iteration
	final      ReplayResult
	cycles     sim.Tick
	replayed   int
}

// Correct runs the self-correction fixpoint over a trace.Source — seeding,
// schedule derivation and every replay round read the source, so a
// file-backed trace is never materialized — with each round's replay split
// across the given number of shards. Every round replays the whole trace from
// cycle zero. Results are byte-identical for any shard count and any
// sufficient window (semantics as ReplayScheduleStream); those choose how
// rounds execute, never what they compute.
//
// The loop stops at a fixpoint (a round whose re-derived schedule equals the
// one it replayed, so another round would repeat it), when the makespan
// moves by no more than cfg.MakespanTolerance of itself between rounds, or
// after cfg.MaxIterations rounds.
//
// seed, when non-nil, supplies the round-0 latencies, one per event; it is
// never mutated. Otherwise cfg.SeedMode() decides: "coupled" seeds with a
// coupled replay's latencies, the loop's exact fixpoint, charged to the
// result and run on the fabric the rounds replay on; "zeroload" with the
// target fabric's zero-load probe. cfg.Incremental is not read.
//
// Cancellation is cooperative: the loop checks ctx at every round boundary
// and, once ctx is done, parks instead of starting another round. A parked
// run returns the partial CorrectionResult, a non-nil *ParkState, and an
// error wrapping ErrParked and ctx's error. Replay rounds themselves are
// never interrupted mid-flight, so a park costs at most one round of latency
// and the partial trajectory is byte-identical to a prefix of the
// uncancelled run's. Passing the state back as resume (same trace content,
// config and fabric kind, in src of either residency) re-enters the loop at
// the parked round boundary instead of restarting — skipping seeding and the
// initial schedule derivation, with the trajectory so far already in place;
// seed is then ignored, and every resumed pass reads src.
//
// onRound, when non-nil, is called on the loop's goroutine after every
// completed round: from the first call on, a park has a trajectory to
// report.
//
// spare, when non-nil, is asked for a second simulation slot whenever a round
// could start beside the one running; it returns the slot's release, or nil
// when none is free. On a resident trace at K = 1, a granted slot runs the
// next round on a fabric of its own, in a second goroutine, deriving its
// schedule from the running round's deliveries as they land (overlap.go),
// and is released when that round ends. The result is byte-identical either
// way; the loop's decisions (delta, tolerance, onRound, park) are taken at
// each round's end, in order, as without overlap, and a round running ahead
// of a decision that ends the loop is stopped and discarded. No goroutine
// outlives the call, and a panic in one resurfaces in the caller's.
func Correct(ctx context.Context, factory NetworkFactory, src trace.Source, cfg config.SCTM, shards, window int, seed []sim.Tick, resume *ParkState, onRound func(), spare func() func()) (CorrectionResult, *ParkState, error) {
	n := src.Meta().NumEvents
	opts := ScheduleOptions{
		DisableSyncDeps:   cfg.DisableSyncDeps,
		DisableCausalDeps: cfg.DisableCausalDeps,
	}

	var out CorrectionResult
	runner := newReplayer(factory, src, shards, window)
	// prev is the schedule a round replays; the round derives next, and the
	// two trade places. A round's result shares both its vectors with the
	// loop: its Inject is prev, which becomes next, and its Arrive is the
	// replayer's arrival vector, so the round after overwrites them while it
	// runs and then replaces out.Final with its own result. Before round 0,
	// next holds the round-0 latencies the loop seeds itself with.
	var prev []sim.Tick
	next := make([]sim.Tick, n)
	// Profiler labels tag every sample with the round and phase so a pprof
	// capture of a correction run decomposes into the coupled seed's pass,
	// the seed's schedule derivation and each round's replay, which derives
	// the next schedule (round -1 renders as "seed"). Label bookkeeping
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
		prev = resume.prev
		out.Iterations = append([]Iteration(nil), resume.iterations...)
		out.Final = resume.final
		out.TotalCycles = resume.cycles
		out.ReplayedEvents = resume.replayed
	} else {
		// Round-0 latencies: the caller's seed, a coupled replay's (a pass
		// charged like a round), or the target fabric's zero-load estimate
		// per message, filled in by the pass that derives the round-0
		// schedule. The last two are written into next.
		lat := seed
		var zeroLoad func(e *trace.Event) sim.Tick
		if lat == nil && cfg.SeedMode() == "coupled" {
			var c ReplayResult
			if err := labeled(-1, "coupled", func() (err error) {
				c, err = runner.coupled(opts)
				return err
			}); err != nil {
				return CorrectionResult{}, nil, fmt.Errorf("core: coupled seed: %w", err)
			}
			lat = next
			for i := range lat {
				lat[i] = c.Arrive[i] - c.Inject[i]
			}
			out.TotalCycles, out.ReplayedEvents = c.Cycles, n
		} else if lat == nil {
			lat = next
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
	runner.derive.opts = opts
	// Overlapped rounds: cur is this iteration's round when it already runs,
	// started beside the round before, and ahead is the round started beside
	// this one. Either is stopped on any way out of the loop. A loop seeded
	// coupled ends in round 0, so it is offered no overlap.
	tr, _ := src.(*trace.Trace)
	overlapOK := spare != nil && tr != nil && n > 0 && runner.lanes() == 1 && (seed != nil || cfg.SeedMode() != "coupled")
	var ov *overlap
	var cur, ahead *aheadRound
	// startAhead starts round+1 beside round, following its deliveries, on
	// the slot release hands back (nil: the call's own). Round is cur, or,
	// when it starts with its schedule whole, replays prev on slot 0 through
	// the replayer.
	startAhead := func(round int, release func()) error {
		if ov == nil {
			var err error
			if ov, err = newOverlap(runner, tr, opts); err != nil {
				release()
				return err
			}
		}
		slot := 1
		if cur != nil {
			slot = 1 - cur.slot
		} else {
			runner.slots[0].armLog(n)
		}
		ahead = ov.follow(runner, slot, round+1, prev, next, release, labeled)
		return nil
	}
	defer func() {
		for _, f := range [...]*aheadRound{cur, ahead} {
			if f != nil {
				f.halt()
			}
		}
	}()
	for round := len(out.Iterations); round < cfg.MaxIterations; round++ {
		// Park point: stopping at a round boundary loses at most the round
		// that was about to start, never work already done. The partial
		// result is returned alongside the error — callers decide whether the
		// trajectory so far is worth reporting — together with the state a
		// later call can resume from.
		if cause := ctx.Err(); cause != nil {
			if cur != nil {
				cur.halt()
				cur = nil
			}
			state := &ParkState{
				prev:       prev,
				iterations: append([]Iteration(nil), out.Iterations...),
				final:      out.Final,
				cycles:     out.TotalCycles,
				replayed:   out.ReplayedEvents,
			}
			return out, state, fmt.Errorf("%w after %d of %d rounds: %w",
				ErrParked, len(out.Iterations), cfg.MaxIterations, cause)
		}
		// The next schedule is derived from this round's measured latencies,
		// the next round's estimates verbatim: by the replay itself, or by
		// the round started beside it from its deliveries, or, when this
		// round ran beside its predecessor and nothing follows it, in one
		// pass once it ends.
		var res ReplayResult
		var err error
		inline := false
		if overlapOK && round+1 < cfg.MaxIterations {
			if cur != nil && cur.spare != nil {
				// This round and the one before it held the call's slot and
				// a spare, and the one before has ended: the round ahead
				// takes the call's slot.
				err = startAhead(round, nil)
			} else if release := spare(); release != nil {
				err = startAhead(round, release)
			}
		}
		if err == nil && cur == nil {
			inline = ahead == nil
			err = labeled(round, "replay", func() (err error) {
				runner.next = nil
				if inline {
					runner.next = next
				}
				res, err = runner.run(prev)
				return err
			})
		} else if err == nil {
			res, err = cur.join()
			cur = nil
		}
		if err != nil {
			return CorrectionResult{}, nil, fmt.Errorf("core: correction round %d: %w", round, err)
		}
		if !inline && (ahead == nil || !ahead.awaitDerived()) {
			// No round derived the next schedule, or the one running ahead
			// failed before it had: its failure surfaces if the loop gets
			// to its round.
			if err := runner.deriveAll(next, res); err != nil {
				return CorrectionResult{}, nil, fmt.Errorf("core: correction round %d: %w", round, err)
			}
		}
		out.TotalCycles += res.Cycles
		out.ReplayedEvents += n
		delta := maxScheduleDelta(next, prev)
		out.Iterations = append(out.Iterations, Iteration{
			Round:       round,
			Delta:       delta,
			Makespan:    res.Makespan,
			MeanLatency: res.MeanLatency,
			Cycles:      res.Cycles,
		})
		if onRound != nil {
			onRound()
		}
		prevMakespan := sim.Tick(-1)
		if round > 0 {
			prevMakespan = out.Iterations[round-1].Makespan
		}
		out.Final = res
		if delta == 0 {
			out.Converged = true
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
				return out, nil, nil
			}
		}
		prev, next = next, prev
		cur, ahead = ahead, nil
	}
	return out, nil, nil
}
