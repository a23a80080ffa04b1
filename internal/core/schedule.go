// Package core implements the paper's contribution: the Self-Correction
// Trace Model. It contains three replay methods over dependency-annotated
// traces —
//
//   - NaiveReplay: inject at the timestamps recorded on the capture network
//     (the fast-but-wrong baseline the paper improves on);
//   - CoupledReplay: a tightly coupled dependency-driven co-simulation that
//     resolves dependencies inside the network simulation; it lands in one
//     pass on SelfCorrect's exact fixpoint;
//   - SelfCorrect: the paper's method — an iterated schedule-then-simulate
//     fixpoint in which each round replays the trace with injection times
//     derived from the dependency DAG using the previous round's *measured*
//     per-message latencies, until the schedule stops moving.
//
// plus the error metrics that compare them against execution-driven ground
// truth. All three run on the one replay engine of replay.go, through its one
// lane method, and differ only in the feed that hands it injections:
// NaiveReplay and every SelfCorrect round replay a schedule, an overlapped
// round derives its schedule as the round before it delivers (overlap.go),
// and CoupledReplay releases each event once its dependencies arrive. Only
// the summary replay of stream.go, which keeps no per-event vector, sets its
// fabric up on its own.
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
	d := deriver{opts: opts}
	d.reset(inject, latency, nil, false)
	err := EachEvent(src, func(i int, e *trace.Event) {
		if estimate != nil {
			latency[i] = estimate(e)
		}
		d.offer(i, e)
	})
	if err != nil {
		return nil, err
	}
	return inject, nil
}

// deriver is the one body of schedule derivation: next[i] = max over event
// i's kept dependencies d of (next[d] + latency[d]), plus i's gap. It is fed
// events in ID order, a topological order, and derives them in that order.
//
// Three passes feed it. Two know every latency up front and have each event
// derived as it is offered: ScheduleStream's (the seed's among them), and the
// pass a K > 1 run makes once every lane has drained, since lanes cannot read
// each other's arrivals. A K = 1 run feeds it from the replay's own decoder,
// while the replay is still delivering: an event whose dependency has not
// been delivered waits in the backlog, and everything after it waits behind
// it, until the dependency's arrival is recorded. The backlog
// holds only an event's gap and its kept dependencies, and is not part of
// the read-ahead window.
type deriver struct {
	opts ScheduleOptions
	next []sim.Tick
	// The latency of event j is arrive[j] − inject[j], the realized times of
	// the replay being measured; with inject nil, arrive holds the latencies
	// themselves.
	arrive, inject []sim.Tick
	// live is set while that replay still delivers: event j's latency is
	// known once arrive[j] is nonzero, and every latency is when it is unset.
	live bool

	// The backlog: events offered but not yet derived, in ID order, from
	// held[head], which is event first, on. Event first+k's kept
	// dependencies end at held[head+k].to in deps, and start where the
	// previous one's end, except the head's, which start at from: the
	// dependencies before it are folded into its ready time.
	held  []heldEvent
	head  int
	first int
	from  int
	deps  []int
	// wait is the event the head waits on to be delivered, −1 for none.
	wait int
	// peak is the longest the backlog has been.
	peak int
}

// heldEvent is one backlog entry. ready is the latest arrival among the
// dependencies already folded in.
type heldEvent struct {
	gap, ready sim.Tick
	to         int
}

// heldCap is the backlog storage a deriver that waits on deliveries starts
// with: enough for the backlogs a replay of a real trace builds (a correction
// of a generated 2^19-event trace on the 64-node crossbar peaks near 2 300
// events), so that its storage is allocated once.
const heldCap = 1 << 12

// reset points the deriver at a new derivation, keeping its storage.
func (d *deriver) reset(next, arrive, inject []sim.Tick, live bool) {
	d.next, d.arrive, d.inject, d.live = next, arrive, inject, live
	d.held, d.deps, d.head, d.from, d.wait = d.held[:0], d.deps[:0], 0, 0, -1
	if live && d.held == nil {
		d.held, d.deps = make([]heldEvent, 0, heldCap), make([]int, 0, heldCap)
	}
}

// offer hands the deriver event i, the next in ID order, and derives what it
// can. The event is only read during the call: with every latency known it
// is derived at once, and otherwise its kept dependencies are copied into the
// backlog.
func (d *deriver) offer(i int, e *trace.Event) {
	if !d.live {
		var ready sim.Tick
		for _, dep := range e.Deps {
			if d.opts.keepDep(dep.Class) {
				ready = max(ready, d.arrival(int(dep.On)-1))
			}
		}
		d.next[i] = ready + e.Gap
		return
	}
	if d.head == len(d.held) {
		d.first = i
	}
	for _, dep := range e.Deps {
		if d.opts.keepDep(dep.Class) {
			d.deps = append(d.deps, int(dep.On)-1)
		}
	}
	d.held = append(d.held, heldEvent{gap: e.Gap, to: len(d.deps)})
	d.peak = max(d.peak, len(d.held)-d.head)
	d.advance()
}

// advance derives backlog events from the head until one has a dependency
// not yet delivered, or the backlog is empty.
func (d *deriver) advance() {
	if d.wait >= 0 && d.arrive[d.wait] == 0 {
		return
	}
	d.derive()
}

// derive is advance past its check of the event the head last waited on.
func (d *deriver) derive() {
	for d.head < len(d.held) {
		h := &d.held[d.head]
		for ; d.from < h.to; d.from++ {
			j := d.deps[d.from]
			if d.arrive[j] == 0 {
				d.wait = j
				d.compact()
				return
			}
			h.ready = max(h.ready, d.arrival(j))
		}
		d.next[d.first] = h.ready + h.gap
		d.head++
		d.first++
	}
	d.held, d.deps, d.head, d.from, d.wait = d.held[:0], d.deps[:0], 0, 0, -1
}

// arrival is event j's arrival under the next schedule: its derived
// injection plus its latency.
func (d *deriver) arrival(j int) sim.Tick {
	if d.inject == nil {
		return d.next[j] + d.arrive[j]
	}
	return d.next[j] + d.arrive[j] - d.inject[j]
}

// compact moves a blocked backlog to the front of its storage once the
// derived entries ahead of it make up half of it, so a backlog that never
// empties does not grow its storage without bound.
func (d *deriver) compact() {
	if d.head < 1024 || 2*d.head < len(d.held) {
		return
	}
	base := d.from
	d.held = d.held[:copy(d.held, d.held[d.head:])]
	for k := range d.held {
		d.held[k].to -= base
	}
	d.deps = d.deps[:copy(d.deps, d.deps[base:])]
	d.head, d.from = 0, 0
}

// maxScheduleDelta returns the largest absolute difference between two
// schedules, the convergence measure of the correction loop.
func maxScheduleDelta(a, b []sim.Tick) sim.Tick {
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
