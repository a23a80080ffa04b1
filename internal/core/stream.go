package core

import (
	"fmt"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// The feed: how the replay engine's drain loop (replay.go) is handed its
// injections. Every replay reads its events from a trace.Source, so event
// payloads and dependency edges live only inside a bounded read-ahead window;
// a resident trace is the same feed with nothing to bound. Per-event *scalar*
// bookkeeping (injection times, latencies, result vectors) remains O(n) — the
// schedule itself is the correction loop's state. NaiveReplaySummaryStream
// below is the fully out-of-core tier: O(window + nodes) resident,
// summary-only results.
//
// How (time, ID) injection order survives out-of-order schedules without a
// sort: the decoder keeps suffixMin[i] = min injection time over events ≥ i.
// Decoding while suffixMin[pos] ≤ now guarantees every event due at `now` has
// been decoded, and the pending queue releases them in exactly (time, ID)
// order — the order a full sort of the schedule would give. The queue is a
// sim.Calendar, which releases same-cycle events in push order, and the
// decoder pushes in ID order; every push lands at or after the cycle being
// released. The queue is the read-ahead window: it holds events the stream
// has passed but the schedule has not yet made due, and its size is the
// trace's schedule inversion width. A window cap turns an undersized window
// into a deterministic error — never a deadlock and never a silently wrong
// result.

// feed hands the drain loop its injections.
type feed interface {
	// injectDue injects every event due at or before now, in (time, ID)
	// order, and returns how many.
	injectDue(now sim.Tick, net noc.Network, pool *noc.MsgPool) (int, error)
	// nextInject returns a lower bound on the injection time of every event
	// the feed has yet to inject and could name now — all of them for a
	// fixed schedule, the ready ones for a coupled replay, where a Tick's
	// deliveries can add more — and sim.Never when there is none. A bound
	// below the true earliest time costs an idle Tick, never correctness.
	nextInject() sim.Tick
}

// inject hands one trace event to the fabric as a pooled message.
func inject(net noc.Network, pool *noc.MsgPool, id uint64, src, dst, bytes int, class noc.Class) {
	m := pool.Get()
	m.ID = id
	m.Src = src
	m.Dst = dst
	m.Bytes = bytes
	m.Class = class
	net.Inject(m)
}

// readAhead resolves a window request into the decoder's cap on pending
// events (0 = no cap). A resident trace has nothing to bound; for any other
// source 0 selects trace.DefaultWindow and a negative value
// (trace.Unbounded) lifts the cap.
func readAhead(src trace.Source, w int) int {
	if resident(src) || w < 0 {
		return 0
	}
	if w == 0 {
		return trace.DefaultWindow
	}
	return w
}

// resident reports whether src is a materialized trace.
func resident(src trace.Source) bool {
	_, ok := src.(*trace.Trace)
	return ok
}

// suffixMinInject returns sm with sm[i] = min(inject[i:]) and sm[n] =
// sim.Never: the earliest injection among events the stream has not yet
// decoded, the conservative bound that drives both decode and fast-forward.
func suffixMinInject(inject []sim.Tick) []sim.Tick {
	n := len(inject)
	sm := make([]sim.Tick, n+1)
	sm[n] = sim.Never
	for i := n - 1; i >= 0; i-- {
		sm[i] = inject[i]
		if sm[i+1] < sm[i] {
			sm[i] = sm[i+1]
		}
	}
	return sm
}

// pendingMsg is one decoded-but-not-yet-injected event: the full payload a
// future Inject needs, without retaining the trace.Event (or its deps).
type pendingMsg struct {
	at    sim.Tick
	idx   int // event ID minus one
	src   int
	dst   int
	bytes int
	class noc.Class
}

// ringTicks is the span of the decoder's pending calendar: how many cycles
// past the last released one it holds in per-cycle buckets. Its overflow heap
// is nearly idle: a correction of a generated 2^19-event trace on the 64-node
// crossbar sends it 480 of 1.6 million pushes.
const ringTicks = 1 << 12

// noFloor is the streamDecoder.floor of a drain that starts at cycle zero.
const noFloor = -sim.Never

// streamDecoder is the schedule feed: it advances an iterator in lockstep
// with a suffix-min bound, pushing the events it keeps onto a pending queue.
type streamDecoder struct {
	it      trace.Iterator
	inject  []sim.Tick
	sm      []sim.Tick
	pos     int
	pending *sim.Calendar[pendingMsg]
	window  int // max pending entries; 0 = unbounded
	// own filters which events this consumer keeps; nil keeps all. With a
	// filter the suffix-min bound may belong to another consumer's event,
	// which costs this one an idle Tick, never correctness: every Tick
	// strictly before NextWake is a no-op.
	own func(idx int) bool
	// floor drops events injecting at or before it: a drain resuming from a
	// fabric checkpoint taken at cycle floor finds them already inside the
	// restored fabric (or delivered).
	floor sim.Tick
	// maxRef folds in every decoded event's RefArrive: the event is gone by
	// finalize time, so the makespan tail term accumulates during decode.
	maxRef sim.Tick
	ev     trace.Event
}

// decodeTo decodes every event whose suffix-min injection bound is ≤ t.
// Afterward, any undecoded event injects strictly after t.
func (d *streamDecoder) decodeTo(t sim.Tick) error {
	n := len(d.inject)
	for d.pos < n && d.sm[d.pos] <= t {
		if err := nextEvent(d.it, &d.ev, d.pos, n); err != nil {
			return err
		}
		if d.ev.RefArrive > d.maxRef {
			d.maxRef = d.ev.RefArrive
		}
		if d.inject[d.pos] > d.floor && (d.own == nil || d.own(d.pos)) {
			d.pending.Push(d.inject[d.pos], pendingMsg{
				at:    d.inject[d.pos],
				idx:   d.pos,
				src:   d.ev.Src,
				dst:   d.ev.Dst,
				bytes: d.ev.Bytes,
				class: d.ev.Class,
			})
			if d.window > 0 && d.pending.Len() > d.window {
				return fmt.Errorf("schedule needs more than %d resident events, the size of the streaming window; raise parallelism.window_events (-1 lifts the cap)", d.window)
			}
		}
		d.pos++
	}
	return nil
}

// nextInject implements feed: the earliest pending cycle among decoded
// events, the suffix-min bound among undecoded ones.
func (d *streamDecoder) nextInject() sim.Tick {
	return min(d.sm[d.pos], d.pending.NextAt())
}

// injectDue implements feed.
func (d *streamDecoder) injectDue(now sim.Tick, net noc.Network, pool *noc.MsgPool) (int, error) {
	if err := d.decodeTo(now); err != nil {
		return 0, err
	}
	injected := 0
	for d.pending.NextAt() <= now {
		m := d.pending.Pop()
		inject(net, pool, uint64(m.idx+1), m.src, m.dst, m.bytes, m.class)
		injected++
	}
	return injected, nil
}

// ReplaySummary is the O(window)-resident replay result: everything
// ReplayResult reports except the per-event time vectors, whose O(n) storage
// is exactly what the summary tier exists to avoid.
type ReplaySummary struct {
	// Events is the number of messages replayed.
	Events int
	// Makespan, MeanLatency, Cycles and NetStats match the corresponding
	// ReplayResult fields exactly.
	Makespan    sim.Tick
	MeanLatency float64
	Cycles      sim.Tick
	NetStats    *noc.Stats
}

// captureFeed injects a trace at its recorded times straight off the stream,
// one event resident. It leans on the capture-order property that RefInject
// is nondecreasing in ID, which makes stream order the injection order; the
// property is checked on every event, not assumed.
type captureFeed struct {
	it       trace.Iterator
	cur      trace.Event
	have     bool
	injected int
	total    int
	maxRef   sim.Tick
}

// advance reads the next event, if there is one, into cur.
func (f *captureFeed) advance() error {
	if f.have = f.injected < f.total; !f.have {
		return nil
	}
	prev := f.cur.RefInject
	if err := nextEvent(f.it, &f.cur, f.injected, f.total); err != nil {
		return err
	}
	if f.injected > 0 && f.cur.RefInject < prev {
		return fmt.Errorf("summary replay requires capture order, but event %d injects at %d after event %d at %d; replay it with Session.RunNaiveReplayContext", f.cur.ID, f.cur.RefInject, f.cur.ID-1, prev)
	}
	return nil
}

// injectDue implements feed.
func (f *captureFeed) injectDue(now sim.Tick, net noc.Network, pool *noc.MsgPool) (int, error) {
	injected := 0
	for f.have && f.cur.RefInject <= now {
		inject(net, pool, uint64(f.cur.ID), f.cur.Src, f.cur.Dst, f.cur.Bytes, f.cur.Class)
		f.injected++
		injected++
		if f.cur.RefArrive > f.maxRef {
			f.maxRef = f.cur.RefArrive
		}
		if err := f.advance(); err != nil {
			return injected, err
		}
	}
	return injected, nil
}

// nextInject implements feed.
func (f *captureFeed) nextInject() sim.Tick {
	if !f.have {
		return sim.Never
	}
	return f.cur.RefInject
}

// NaiveReplaySummaryStream replays the trace at its recorded capture
// timestamps with truly constant residency: one event in flight from the
// decoder, O(nodes) fabric state, no per-event vectors. It requires the
// capture-order property that RefInject is nondecreasing in ID (true of
// every recorded and generated trace; checked, not assumed), which makes
// stream order the injection order and the read-ahead window exactly one
// event. The summary fields equal NaiveReplay's on the same fabric.
func NaiveReplaySummaryStream(net noc.Network, src trace.Source) (ReplaySummary, error) {
	m := src.Meta()
	if err := checkFabric(net, m.Nodes); err != nil {
		return ReplaySummary{}, err
	}
	it, err := src.Pass()
	if err != nil {
		return ReplaySummary{}, err
	}
	defer it.Close()

	var pool noc.MsgPool
	var latSum float64
	var maxArr sim.Tick
	delivered := 0
	net.SetDeliver(func(msg *noc.Message) {
		latSum += float64(msg.Arrive - msg.Inject)
		if msg.Arrive > maxArr {
			maxArr = msg.Arrive
		}
		delivered++
		pool.Put(msg)
	})
	f := &captureFeed{it: it, total: m.NumEvents}
	err = f.advance()
	if err == nil {
		err = drain(net, f, &pool, 0, &delivered, m.NumEvents, nil)
	}
	if err != nil {
		return ReplaySummary{}, fmt.Errorf("core: %w", err)
	}
	sum := ReplaySummary{
		Events:   m.NumEvents,
		Makespan: maxArr + refTail(m.RefMakespan, f.maxRef),
		Cycles:   net.Now(),
		NetStats: net.Stats(),
	}
	if m.NumEvents > 0 {
		sum.MeanLatency = latSum / float64(m.NumEvents)
	}
	return sum, nil
}
