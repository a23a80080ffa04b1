// Package core implements the paper's contribution: the Self-Correction
// Trace Model. It contains three replay methods over dependency-annotated
// traces —
//
//   - NaiveReplay: inject at the timestamps recorded on the capture network
//     (the fast-but-wrong baseline the paper improves on);
//   - CoupledReplay: a tightly coupled dependency-driven co-simulation that
//     resolves dependencies inside the network simulation (the expensive
//     upper-accuracy reference);
//   - SelfCorrect: the paper's method — an iterated schedule-then-simulate
//     fixpoint in which each round replays the trace with injection times
//     derived from the dependency DAG using the previous round's *measured*
//     per-message latencies, until the schedule stops moving.
//
// plus the error metrics that compare them against execution-driven ground
// truth. NaiveReplay and every SelfCorrect round are schedule-driven and run
// on the one replay engine of replay.go.
package core

import (
	"fmt"

	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// ScheduleOptions controls dependency interpretation; the zero value is the
// full model. Disabling classes reproduces the R8 ablation.
type ScheduleOptions struct {
	DisableSyncDeps   bool
	DisableCausalDeps bool
}

// keepDep reports whether a dependency class participates in scheduling.
func (o ScheduleOptions) keepDep(c trace.DepClass) bool {
	switch c {
	case trace.DepSync:
		return !o.DisableSyncDeps
	case trace.DepCausal:
		return !o.DisableCausalDeps
	default:
		return true
	}
}

// Schedule is ScheduleStream on a resident trace, panicking where that
// returns an error (a latency slice of the wrong length, a malformed trace).
// It remains because bench/ names it (DESIGN.md §12).
func Schedule(tr *trace.Trace, latency []sim.Tick, opts ScheduleOptions) []sim.Tick {
	inject, err := ScheduleStream(tr, latency, opts)
	if err != nil {
		panic(err)
	}
	return inject
}

// nextEvent decodes event number pos (0-based) of n from it, checking the
// dense 1-based ID invariant the replay engine relies on to map a delivered
// message back to its event without carrying a boxed payload.
func nextEvent(it trace.Iterator, e *trace.Event, pos, n int) error {
	ok, err := it.Next(e)
	if err != nil {
		return err
	}
	if !ok {
		return fmt.Errorf("trace stream ended after %d of %d events", pos, n)
	}
	if int(e.ID) != pos+1 {
		return fmt.Errorf("trace event %d has id %d, want dense 1-based ids", pos, e.ID)
	}
	return nil
}

// EachEvent calls fn on every event of one pass over src, in ID order. The
// event (and its Deps) is only valid during the call.
func EachEvent(src trace.Source, fn func(i int, e *trace.Event)) error {
	n := src.Meta().NumEvents
	it, err := src.Pass()
	if err != nil {
		return err
	}
	defer it.Close()
	var e trace.Event
	for i := 0; i < n; i++ {
		if err := nextEvent(it, &e, i, n); err != nil {
			return fmt.Errorf("core: %w", err)
		}
		fn(i, &e)
	}
	return nil
}

// ScheduleStream derives an injection time for every event from the
// dependency DAG, given a per-event latency estimate: an event is injected its
// recorded gap after its last dependency's estimated arrival. Events are
// processed in ID order, a topological order by construction, so one pass
// suffices, and dependency edges are consulted only while the event streams
// past: no event or edge outlives its decode.
//
// latency[i] estimates the end-to-end latency of event ID i+1 (including
// source queueing). The returned slice is indexed the same way.
func ScheduleStream(src trace.Source, latency []sim.Tick, opts ScheduleOptions) ([]sim.Tick, error) {
	return schedule(src, latency, opts, nil)
}

// schedule is ScheduleStream's pass. With estimate non-nil it also seeds the
// latencies: latency[i] = estimate(event i), filled as the event streams past
// and so before any dependent reads it — a seeded correction derives its
// round-0 schedule in the pass that computes the seed.
func schedule(src trace.Source, latency []sim.Tick, opts ScheduleOptions, estimate func(e *trace.Event) sim.Tick) ([]sim.Tick, error) {
	n := src.Meta().NumEvents
	if len(latency) != n {
		return nil, fmt.Errorf("core: %d latency estimates for %d events", len(latency), n)
	}
	inject := make([]sim.Tick, n)
	err := EachEvent(src, func(i int, e *trace.Event) {
		if estimate != nil {
			latency[i] = estimate(e)
		}
		var ready sim.Tick
		for _, d := range e.Deps {
			if !opts.keepDep(d.Class) {
				continue
			}
			di := int(d.On) - 1
			arr := inject[di] + latency[di]
			if arr > ready {
				ready = arr
			}
		}
		inject[i] = ready + e.Gap
	})
	if err != nil {
		return nil, err
	}
	return inject, nil
}

// MaxScheduleDelta returns the largest absolute difference between two
// schedules, the convergence measure of the correction loop.
func MaxScheduleDelta(a, b []sim.Tick) sim.Tick {
	if len(a) != len(b) {
		panic(fmt.Sprintf("core: comparing schedules of lengths %d and %d", len(a), len(b)))
	}
	var max sim.Tick
	for i := range a {
		d := a[i] - b[i]
		if d < 0 {
			d = -d
		}
		if d > max {
			max = d
		}
	}
	return max
}
