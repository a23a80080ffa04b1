package core

import (
	"fmt"
	"slices"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// The feed: how the replay engine's drain loop (replay.go) is handed its
// injections. Every replay reads its events from a trace.Source, so event
// payloads and dependency edges live only inside a bounded read-ahead window;
// a resident trace is the same feed with nothing to bound. What stays O(n) is
// three time vectors, 24 bytes per event: the schedule being replayed (which
// is also the result's realized injections), the schedule being derived, and
// the arrivals, which are also the delivered marks. A correction carries them
// from round to round and allocates none of them again.
// NaiveReplaySummaryStream below is the fully out-of-core tier: O(window +
// nodes) resident, summary-only results, and the one replay that sets its
// fabric up itself rather than on the replayer's lane method.
//
// How (time, ID) injection order survives out-of-order schedules without a
// sort: the decoder's bound is min injection time over events ≥ pos, the
// schedule's suffix minimum. It is kept per block of minBlock events (the
// suffix minimum at each block's start) and expanded into a per-decoder
// cursor over the block being decoded, which pos, only ever advancing, reads
// in order. Decoding while the bound is ≤ now guarantees every event due at
// `now` has been decoded, and the pending queue releases them in exactly (time, ID)
// order — the order a full sort of the schedule would give. The queue is a
// sim.Calendar, which releases same-cycle events in push order, and the
// decoder pushes in ID order; every push lands at or after the cycle being
// released. The queue is the read-ahead window: it holds events the stream
// has passed but the schedule has not yet made due, and its size is the
// trace's schedule inversion width. A window cap turns an undersized window
// into a deterministic error — never a deadlock and never a silently wrong
// result.
//
// A correction round's decoder also hands every event it decodes to the
// deriver (schedule.go), which derives the next round's schedule from this
// round's arrivals as the delivery callback records them, so a round reads
// its source once. Events whose dependencies are still in flight wait in the
// deriver's backlog, which holds a gap and a few indices per event and is not
// part of the window. A file source's pass decodes the file as the decoder
// here calls it, on the replay's own goroutine (trace.FileSource.Pass).

// feed hands the drain loop its injections.
type feed interface {
	// injectDue injects every event due at or before now, in (time, ID)
	// order.
	injectDue(now sim.Tick, net noc.Network, pool *noc.MsgPool) error
	// nextInject returns a lower bound on the injection time of every event
	// the feed has yet to inject and could name now — all of them for a
	// fixed schedule, the ready ones for a coupled replay, where a Tick's
	// deliveries can add more — and sim.Never when there is none. A bound
	// below the true earliest time costs an idle Tick, never correctness.
	// wake is the fabric's next wake, which only an overlapped round's
	// follower reads.
	nextInject(wake sim.Tick) sim.Tick
	// lastRef is the latest capture-run arrival among the events fed so far:
	// the capture's makespan tail starts there.
	lastRef() sim.Tick
}

// deliveryHook is a feed that hears of every delivery, after its arrival is
// recorded and before the message is recycled.
type deliveryHook interface {
	delivered(idx int, m *noc.Message)
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

// minBlock is the span of the decoder's bound: one suffix minimum is kept per
// minBlock events, and a decoder expands the block it is in into its cursor.
const minBlock = 1 << 10

// blockMins returns bm, reusing its storage, with bm[b] =
// min(inject[b*minBlock:]) for every block b and a final sim.Never: the
// schedule's suffix minimum at each block's start.
func blockMins(bm, inject []sim.Tick) []sim.Tick {
	nb := (len(inject) + minBlock - 1) / minBlock
	bm = slices.Grow(bm[:0], nb+1)[:nb+1]
	bm[nb] = sim.Never
	for b := nb - 1; b >= 0; b-- {
		m := bm[b+1]
		for _, t := range inject[b*minBlock : min((b+1)*minBlock, len(inject))] {
			m = min(m, t)
		}
		bm[b] = m
	}
	return bm
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

// streamDecoder is the schedule feed: it advances an iterator in lockstep
// with a suffix-min bound, pushing the events it keeps onto a pending queue.
type streamDecoder struct {
	it     trace.Iterator
	inject []sim.Tick
	bm     []sim.Tick // blockMins(inject)
	pos    int
	// cur[i%minBlock] = min(inject[i:]) for the events i of the block that
	// ends at end; the zero decoder has expanded no block yet.
	cur     *[minBlock]sim.Tick
	end     int
	pending *sim.Calendar[pendingMsg]
	window  int // max pending entries; 0 = unbounded
	// own filters which events this consumer keeps; nil keeps all. With a
	// filter the suffix-min bound may belong to another consumer's event,
	// which costs this one an idle Tick, never correctness: every Tick
	// strictly before NextWake is a no-op.
	own func(idx int) bool
	// maxRef folds in every decoded event's RefArrive: the event is gone by
	// finalize time, so the makespan tail term accumulates during decode.
	maxRef sim.Tick
	// derive, when non-nil, is offered every decoded event, and advanced
	// before each injection burst, after the deliveries of the Tick before.
	derive *deriver
	ev     trace.Event
}

// bound returns min(inject[pos:]), sim.Never once every event is decoded:
// the earliest injection among events the stream has not yet decoded, the
// conservative bound that drives both decode and fast-forward.
func (d *streamDecoder) bound() sim.Tick {
	if d.pos < d.end {
		return d.cur[d.pos&(minBlock-1)]
	}
	return d.expand()
}

// expand is bound past the end of the block in the cursor: it expands the
// block holding pos, if there is one.
func (d *streamDecoder) expand() sim.Tick {
	if d.pos >= len(d.inject) {
		return sim.Never
	}
	b := d.pos / minBlock
	lo := b * minBlock
	d.end = min(lo+minBlock, len(d.inject))
	m := d.bm[b+1]
	for i := d.end - 1; i >= lo; i-- {
		m = min(m, d.inject[i])
		d.cur[i-lo] = m
	}
	return d.cur[d.pos-lo]
}

// decodeTo decodes every event whose suffix-min injection bound is ≤ t.
// Afterward, any undecoded event injects strictly after t.
func (d *streamDecoder) decodeTo(t sim.Tick) error {
	n := len(d.inject)
	for d.pos < n && d.bound() <= t {
		if err := nextEvent(d.it, &d.ev, d.pos, n); err != nil {
			return err
		}
		if d.ev.RefArrive > d.maxRef {
			d.maxRef = d.ev.RefArrive
		}
		if d.derive != nil {
			d.derive.offer(d.pos, &d.ev)
		}
		if d.own == nil || d.own(d.pos) {
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
func (d *streamDecoder) nextInject(sim.Tick) sim.Tick {
	return min(d.bound(), d.pending.NextAt())
}

func (d *streamDecoder) lastRef() sim.Tick { return d.maxRef }

// injectDue implements feed.
func (d *streamDecoder) injectDue(now sim.Tick, net noc.Network, pool *noc.MsgPool) error {
	if d.derive != nil {
		d.derive.advance()
	}
	if err := d.decodeTo(now); err != nil {
		return err
	}
	for d.pending.NextAt() <= now {
		m := d.pending.Pop()
		inject(net, pool, uint64(m.idx+1), m.src, m.dst, m.bytes, m.class)
	}
	return nil
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
func (f *captureFeed) injectDue(now sim.Tick, net noc.Network, pool *noc.MsgPool) error {
	for f.have && f.cur.RefInject <= now {
		inject(net, pool, uint64(f.cur.ID), f.cur.Src, f.cur.Dst, f.cur.Bytes, f.cur.Class)
		f.injected++
		if f.cur.RefArrive > f.maxRef {
			f.maxRef = f.cur.RefArrive
		}
		if err := f.advance(); err != nil {
			return err
		}
	}
	return nil
}

// nextInject implements feed.
func (f *captureFeed) nextInject(sim.Tick) sim.Tick {
	if !f.have {
		return sim.Never
	}
	return f.cur.RefInject
}

func (f *captureFeed) lastRef() sim.Tick { return f.maxRef }

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
		err = drain(net, f, &pool, &delivered, m.NumEvents)
	}
	if err != nil {
		return ReplaySummary{}, fmt.Errorf("core: %w", err)
	}
	sum := ReplaySummary{
		Events:   m.NumEvents,
		Makespan: maxArr + refTail(m.RefMakespan, f.maxRef),
		Cycles:   net.Now(),
		NetStats: statsOf(net),
	}
	if m.NumEvents > 0 {
		sum.MeanLatency = latSum / float64(m.NumEvents)
	}
	return sum, nil
}
