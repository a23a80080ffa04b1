package core

import (
	"fmt"
	"math/bits"

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
// calendar: one FIFO bucket per cycle for the ringTicks cycles after the last
// released one, and a (time, index) min-heap for events scheduled further
// out. A bucket's FIFO order is ID order because the decoder pushes in ID
// order and every push lands after every released cycle; an overflow event
// moves into its bucket as the ring advances over its cycle, before that
// bucket can take a direct push. The queue is the read-ahead window: it holds
// events the stream has passed but the schedule has not yet made due, and
// its size is the trace's schedule inversion width. A window cap turns an
// undersized window into a deterministic error — never a deadlock and never a
// silently wrong result.

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
	next  int32 // the calendar's link to the next entry: slab index + 1, 0 = none
}

// ringTicks is how many cycles past the last released one the calendar holds
// in per-cycle buckets; a power of two. The overflow heap beyond it is nearly
// idle: a correction of a generated 2^19-event trace on the 64-node crossbar
// sends it 469 of 1.6 million pushes.
const ringTicks = 1 << 12

// pendingQueue is the decoder's pending events in (at, idx) order: per-cycle
// FIFO buckets for [lo, lo+ringTicks), a heap for the cycles beyond. The
// buckets are linked lists through one slab, so a queue reused across runs
// allocates nothing once it has held its peak. The zero value is empty.
type pendingQueue struct {
	lo    sim.Tick // every cycle before lo has been released
	n     int      // pending events, ring and overflow
	first sim.Tick // earliest pending cycle, while n > 0
	// head and tail are each bucket's ends (slab index + 1, 0 = empty); occ
	// has a bit per non-empty bucket, and words a bit per non-zero occ word.
	head, tail [ringTicks]int32
	occ        [ringTicks / 64]uint64
	words      uint64
	slab       []pendingMsg
	free       int32       // released slab entries, linked through next
	far        pendingHeap // events at lo+ringTicks or later
	popped     pendingMsg  // the last event pop took from far
}

// reset empties the queue for a drain, keeping its storage.
func (q *pendingQueue) reset() {
	if q.n > 0 { // a failed run left events behind
		clear(q.head[:])
		clear(q.tail[:])
		clear(q.occ[:])
		q.words = 0
	}
	q.lo, q.n, q.free = 0, 0, 0
	q.slab, q.far = q.slab[:0], q.far[:0]
}

// push queues m. Its cycle must not be before lo.
func (q *pendingQueue) push(m pendingMsg) {
	if q.n == 0 || m.at < q.first {
		q.first = m.at
	}
	q.n++
	if m.at-q.lo >= ringTicks {
		q.far.push(m)
		return
	}
	q.append(m)
}

// append adds m at the tail of its cycle's bucket.
func (q *pendingQueue) append(m pendingMsg) {
	m.next = 0
	e := q.free
	if e != 0 {
		q.free = q.slab[e-1].next
		q.slab[e-1] = m
	} else {
		q.slab = append(q.slab, m)
		e = int32(len(q.slab))
	}
	b := int(m.at) & (ringTicks - 1)
	if q.tail[b] == 0 {
		q.head[b] = e
		q.occ[b>>6] |= 1 << (b & 63)
		q.words |= 1 << (b >> 6)
	} else {
		q.slab[q.tail[b]-1].next = e
	}
	q.tail[b] = e
}

// scan returns the first occupied ring cycle at or after from, given that
// none lies in [lo, from), or sim.Never when the ring is empty.
func (q *pendingQueue) scan(from sim.Tick) sim.Tick {
	b := int(from) & (ringTicks - 1)
	if w := q.occ[b>>6] >> (b & 63); w != 0 { // in from's own word
		return from + sim.Tick(bits.TrailingZeros64(w))
	}
	// The next non-empty word, counting circularly from the one after
	// from's; from's own word comes last, holding cycles a ring later.
	rest := bits.RotateLeft64(q.words, -(b>>6 + 1))
	if rest == 0 {
		return sim.Never
	}
	k := bits.TrailingZeros64(rest) + 1
	w := (b>>6 + k) & (ringTicks/64 - 1)
	return from - sim.Tick(b&63) + sim.Tick(64*k+bits.TrailingZeros64(q.occ[w]))
}

// pop removes the first event due at or before now and returns it, or nil
// when none is due. The event stays valid until the next call on the queue.
func (q *pendingQueue) pop(now sim.Tick) *pendingMsg {
	if q.n == 0 || q.first > now {
		return nil
	}
	q.n--
	if q.first-q.lo >= ringTicks { // the ring is empty: every ring event precedes every overflow one
		q.popped = q.far.pop()
		if len(q.far) > 0 {
			q.first = q.far[0].at
		}
		return &q.popped
	}
	b := int(q.first) & (ringTicks - 1)
	e := q.head[b]
	m := &q.slab[e-1]
	q.head[b], m.next, q.free = m.next, q.free, e
	if q.head[b] == 0 {
		q.tail[b] = 0
		if q.occ[b>>6] &^= 1 << (b & 63); q.occ[b>>6] == 0 {
			q.words &^= 1 << (b >> 6)
		}
		if q.first = q.scan(q.first + 1); q.first == sim.Never && len(q.far) > 0 {
			q.first = q.far[0].at
		}
	}
	return m
}

// advance records that every event due at or before now has been popped. The
// ring moves past now and takes in the overflow events it now covers: their
// buckets were emptied by the pops, and no push can have reached them yet.
func (q *pendingQueue) advance(now sim.Tick) {
	q.lo = now + 1
	for len(q.far) > 0 && q.far[0].at-q.lo < ringTicks {
		q.append(q.far.pop())
	}
}

// next returns the earliest pending cycle, or sim.Never.
func (q *pendingQueue) next() sim.Tick {
	if q.n == 0 {
		return sim.Never
	}
	return q.first
}

// pendingHeap is a binary min-heap ordered by (at, idx) — the (time, ID)
// injection order.
type pendingHeap []pendingMsg

// before reports whether a is released ahead of b.
func (a *pendingMsg) before(b *pendingMsg) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.idx < b.idx
}

// push and pop move a hole through the tree instead of swapping entries:
// one 48-byte copy per level, not three.
func (h *pendingHeap) push(m pendingMsg) {
	*h = append(*h, m)
	s := *h
	i := len(s) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !m.before(&s[p]) {
			break
		}
		s[i] = s[p]
		i = p
	}
	s[i] = m
}

func (h *pendingHeap) pop() pendingMsg {
	s := *h
	top := s[0]
	last := len(s) - 1
	m := s[last]
	s = s[:last]
	*h = s
	if last == 0 {
		return top
	}
	i := 0
	for {
		c := 2*i + 1
		if c >= last {
			break
		}
		if c+1 < last && s[c+1].before(&s[c]) {
			c++
		}
		if !s[c].before(&m) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = m
	return top
}

// noFloor is the streamDecoder.floor of a drain that starts at cycle zero.
const noFloor = -sim.Never

// streamDecoder is the schedule feed: it advances an iterator in lockstep
// with a suffix-min bound, pushing the events it keeps onto a pending queue.
type streamDecoder struct {
	it      trace.Iterator
	inject  []sim.Tick
	sm      []sim.Tick
	pos     int
	pending *pendingQueue
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
			d.pending.push(pendingMsg{
				at:    d.inject[d.pos],
				idx:   d.pos,
				src:   d.ev.Src,
				dst:   d.ev.Dst,
				bytes: d.ev.Bytes,
				class: d.ev.Class,
			})
			if d.window > 0 && d.pending.n > d.window {
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
	return min(d.sm[d.pos], d.pending.next())
}

// injectDue implements feed.
func (d *streamDecoder) injectDue(now sim.Tick, net noc.Network, pool *noc.MsgPool) (int, error) {
	if err := d.decodeTo(now); err != nil {
		return 0, err
	}
	injected := 0
	for m := d.pending.pop(now); m != nil; m = d.pending.pop(now) {
		inject(net, pool, uint64(m.idx+1), m.src, m.dst, m.bytes, m.class)
		injected++
	}
	d.pending.advance(now)
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
