package core

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync/atomic"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// Overlapped rounds. Round r+1 of a correction injects event i at
//
//	next[i] = max over i's kept dependencies d of (next[d] + Arrive_r[d] − Inject_r[d]) + gap_i,
//
// so it needs only the round-r arrivals of the events i depends on, not the
// end of round r. When Correct is handed a spare simulation slot, round r+1
// runs on a fabric of its own in a second goroutine while round r still
// runs: round r appends each delivered event to its delivery log, and round
// r+1 derives its schedule from that log as it grows, one event once every
// kept dependency is both delivered in round r and derived in round r+1.
//
// The follower may release the injections of cycle t only once no event it
// has still to derive can inject at or before t. Every underived event
// depends, through a chain of kept edges, on some event u that is derived but
// not yet delivered in round r, and each hop adds at least one cycle (a
// latency is at least one cycle, a gap at least zero), so every underived
// event injects at or after
//
//	L = 1 + min over derived-but-undelivered u of next[u]
//
// (L = ∞ once every event is derived). The drain loop asks the feed for its
// next injection before each fast-forward; the follower answers only once the
// fabric's next wake and its own next derived injection both lie below L,
// waiting for more of round r's deliveries until they do. It therefore ticks,
// skips and injects exactly where a serial replay of the finished schedule
// would, and its result is byte-identical to one.
//
// Overlap is only for a resident trace at K = 1. A file-backed round derives
// in the one O(window) pass its replay makes, and a K > 1 round's lanes
// cannot read each other's arrivals until they all drain.

// revDeps is the flat reverse-dependency index of a trace under one
// ScheduleOptions: event i's dependents are child[start[i]:start[i+1]], in ID
// order and once per kept edge, and deps[i] counts i's kept dependencies.
// CoupledReplay and the overlapped rounds of a correction both build it.
type revDeps struct {
	start []int32
	child []int32
	deps  []int32
}

// buildRevDeps builds the index in one pass over src, calling each (when
// non-nil) on every event as it streams past.
func buildRevDeps(src trace.Source, opts ScheduleOptions, each func(i int, e *trace.Event)) (*revDeps, error) {
	n := src.Meta().NumEvents
	ix := &revDeps{start: make([]int32, n+1), deps: make([]int32, n)}
	var edges []int32 // (dependency, dependent) pairs in stream order
	err := EachEvent(src, func(i int, e *trace.Event) {
		if each != nil {
			each(i, e)
		}
		for _, d := range e.Deps {
			if opts.keepDep(d.Class) {
				on := int32(d.On) - 1
				edges = append(edges, on, int32(i))
				ix.start[on]++
				ix.deps[i]++
			}
		}
	})
	if err != nil {
		return nil, err
	}
	// start[i] becomes the end of i's range, then the reverse scatter walks
	// each one back to its beginning, leaving the dependents in ID order.
	for i := 1; i <= n; i++ {
		ix.start[i] += ix.start[i-1]
	}
	ix.child = make([]int32, len(edges)/2)
	for k := len(edges) - 2; k >= 0; k -= 2 {
		on := edges[k]
		ix.start[on]--
		ix.child[ix.start[on]] = edges[k+1]
	}
	return ix, nil
}

// children returns event i's kept dependents.
func (ix *revDeps) children(i int) []int32 { return ix.child[ix.start[i]:ix.start[i+1]] }

// deliveryLog is one round's deliveries in the order they landed, published
// to the round that follows it: the delivery callback writes the event's
// arrival, appends its index and then stores the new length, so every entry
// below a loaded length has its arrival in place.
type deliveryLog struct {
	idx []int32
	n   atomic.Int64
	// waiting is set by a follower about to block on wake; the publisher
	// that clears it sends the wake-up.
	waiting atomic.Bool
	wake    chan struct{}
}

// reset empties the log for a round of n events, keeping its storage.
func (l *deliveryLog) reset(n int) {
	l.idx = slices.Grow(l.idx[:0], n)[:n]
	l.n.Store(0)
	if l.wake == nil {
		l.wake = make(chan struct{}, 1)
	}
}

// publish appends event i, delivered.
func (l *deliveryLog) publish(i int) {
	k := l.n.Load()
	l.idx[k] = int32(i)
	l.n.Store(k + 1)
	if l.waiting.Load() && l.waiting.CompareAndSwap(true, false) {
		l.signal()
	}
}

// signal wakes the log's follower if it blocks; a wake-up it finds on a later
// block is spurious, and the follower checks again.
func (l *deliveryLog) signal() {
	select {
	case l.wake <- struct{}{}:
	default:
	}
}

// awaitSpins is how many times a follower stopped by its bound polls the log
// before it blocks: about as long as a few mesh ticks of its predecessor.
const awaitSpins = 1 << 12

// errHalted is a follower's drain stopped because its predecessor ended the
// loop, parked or failed.
var errHalted = errors.New("core: overlapped round halted")

// Per-event marks of a follower.
const (
	markDerived   = 1 << iota // next holds the event's injection
	markDelivered             // the predecessor has delivered it
)

// follower is the feed of an overlapped round: it derives the round's
// schedule from its predecessor's delivery log as the log grows, and holds
// the drain below the bound L. Its storage (everything sized by the trace)
// is kept from round to round of a slot.
type follower struct {
	tr     *trace.Trace
	ix     *revDeps
	maxRef sim.Tick

	// The predecessor: its schedule, its arrivals and its log.
	pin, parr []sim.Tick
	plog      *deliveryLog

	// next is the schedule being derived, and the one this round replays:
	// while event i is underived, next[i] accumulates the latest dependency
	// arrival folded in so far.
	next      []sim.Tick
	pend      []int32 // kept dependencies not yet derived and delivered
	mark      []uint8
	seen      int     // predecessor log entries consumed
	underived int     // events not yet derived
	open      []int32 // derived, not yet delivered by the predecessor: a min-heap on next
	work      []int32 // derived and delivered, dependents not yet told
	// clock is the last cycle whose injections the drain has released, −1
	// before the first.
	clock sim.Tick
	dueQueue

	stop    atomic.Bool   // set by halt
	derived chan struct{} // closed once every event is derived
}

// reset readies the follower for a round, its predecessor's fields and
// schedule vector set, and derives the root events.
func (f *follower) reset() {
	n := len(f.tr.Events)
	clear(f.next)
	f.pend = append(f.pend[:0], f.ix.deps...)
	f.mark = slices.Grow(f.mark[:0], n)[:n]
	clear(f.mark)
	f.seen, f.underived, f.clock = 0, n, -1
	f.open, f.work = f.open[:0], f.work[:0]
	f.pending.Reset()
	f.stop.Store(false)
	f.derived = make(chan struct{})
	for i := range n {
		if f.pend[i] == 0 {
			f.derive(int32(i))
		}
	}
}

// aheadRound is an overlapped round's goroutine: it replays the follower's
// schedule on the replayer's slot, releases the spare slot the round holds,
// and keeps a panic for join to raise in the caller's goroutine.
type aheadRound struct {
	follower
	slot  int
	spare func() // releases the spare slot the round holds; nil on the call's own
	done  chan struct{}
	res   ReplayResult
	err   error
	panic any
}

// halt stops the round, if it still runs, and waits for its goroutine.
func (a *aheadRound) halt() {
	a.stop.Store(true)
	a.plog.signal()
	<-a.done
}

// join waits for the round to end and returns its result. A panic in its
// goroutine resurfaces here, in the caller's.
func (a *aheadRound) join() (ReplayResult, error) {
	<-a.done
	if a.panic != nil {
		panic(a.panic)
	}
	return a.res, a.err
}

// awaitDerived waits until every event of the round's schedule is derived and
// reports whether that happened; false means the round ended first, with an
// error or a panic.
func (a *aheadRound) awaitDerived() bool {
	select {
	case <-a.derived:
		return true
	case <-a.done:
		select {
		case <-a.derived:
			return true
		default:
			return false
		}
	}
}

// injectDue implements feed: the derived events due by now, in (time, ID)
// order. Every event due by now is derived: the previous nextInject saw now
// below the bound.
func (f *follower) injectDue(now sim.Tick, net noc.Network, pool *noc.MsgPool) error {
	if f.stop.Load() {
		return errHalted
	}
	f.popDue(now, func(i int32) {
		e := &f.tr.Events[i]
		inject(net, pool, uint64(i+1), e.Src, e.Dst, e.Bytes, e.Class)
	})
	f.clock = now
	return nil
}

// nextInject implements feed. It returns the next derived injection once the
// earlier of it and the fabric's next wake lies below the bound — then no
// underived event can precede it and the drain fast-forwards exactly as a
// serial replay would — and otherwise waits for the predecessor's deliveries
// to raise the bound. A halted round returns the next cycle, so the drain
// ticks once and its injectDue reports the halt.
func (f *follower) nextInject(wake sim.Tick) sim.Tick {
	for {
		f.consume()
		at := f.pending.NextAt()
		if f.underived == 0 || min(at, wake) < f.bound() {
			return at
		}
		if !f.await() {
			return f.clock + 1
		}
	}
}

// consume folds in the deliveries the predecessor has published, until
// every event is derived: from then on the round reads nothing of its
// predecessor's, whose storage the round after it may reuse.
func (f *follower) consume() {
	if f.underived == 0 {
		return
	}
	for k := int(f.plog.n.Load()); f.seen < k && f.underived > 0; f.seen++ {
		u := f.plog.idx[f.seen]
		f.mark[u] |= markDelivered
		if f.mark[u]&markDerived != 0 {
			f.work = append(f.work, u)
			f.propagate()
		}
	}
}

// propagate tells the dependents of every derived and delivered event its
// arrival under the new schedule, deriving those it completes, until every
// event is derived.
func (f *follower) propagate() {
	for len(f.work) > 0 && f.underived > 0 {
		u := f.work[len(f.work)-1]
		f.work = f.work[:len(f.work)-1]
		t := f.next[u] + f.parr[u] - f.pin[u]
		for _, c := range f.ix.children(int(u)) {
			f.next[c] = max(f.next[c], t)
			if f.pend[c]--; f.pend[c] == 0 {
				f.derive(c)
			}
		}
	}
}

// derive fixes event i's injection, its last dependency folded in. The bound
// guarantees it lies after the cycle last released; one that does not would
// be injected late, so it panics.
func (f *follower) derive(i int32) {
	at := f.next[i] + f.tr.Events[i].Gap
	if at <= f.clock {
		panic(fmt.Sprintf("core: overlapped round derived event %d at cycle %d, not after its clock %d", i+1, at, f.clock))
	}
	f.next[i] = at
	f.mark[i] |= markDerived
	f.pending.Push(at, i)
	if f.mark[i]&markDelivered != 0 {
		f.work = append(f.work, i)
	} else {
		f.pushOpen(i)
	}
	if f.underived--; f.underived == 0 {
		close(f.derived)
	}
}

// bound is L: one past the earliest injection among events derived but not
// yet delivered by the predecessor, sim.Never once every event is derived.
// Delivered events leave the heap lazily, here.
func (f *follower) bound() sim.Tick {
	if f.underived == 0 {
		return sim.Never
	}
	for f.mark[f.open[0]]&markDelivered != 0 {
		f.popOpen()
	}
	return f.next[f.open[0]] + 1
}

func (f *follower) pushOpen(i int32) {
	h := append(f.open, i)
	for k := len(h) - 1; k > 0; {
		p := (k - 1) / 2
		if f.next[h[p]] <= f.next[h[k]] {
			break
		}
		h[p], h[k] = h[k], h[p]
		k = p
	}
	f.open = h
}

func (f *follower) popOpen() {
	h := f.open
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for k := 0; ; {
		c := 2*k + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && f.next[h[c+1]] < f.next[h[c]] {
			c++
		}
		if f.next[h[k]] <= f.next[h[c]] {
			break
		}
		h[k], h[c] = h[c], h[k]
		k = c
	}
	f.open = h
}

// await waits for the predecessor to publish past what this round has
// consumed: it polls briefly, yielding now and then, and then blocks. It
// reports false once the round is halted.
func (f *follower) await() bool {
	l, seen := f.plog, int64(f.seen)
	for spin := 0; spin < awaitSpins; spin++ {
		if l.n.Load() > seen {
			return true
		}
		if f.stop.Load() {
			return false
		}
		if spin&63 == 63 {
			runtime.Gosched()
		}
	}
	l.waiting.Store(true)
	if l.n.Load() == seen && !f.stop.Load() {
		<-l.wake
	}
	l.waiting.Store(false)
	return !f.stop.Load()
}

func (f *follower) lastRef() sim.Tick { return f.maxRef }

// overlap is what a correction keeps for overlapped rounds: per slot of its
// replayer (0 or 1), the round that runs there.
type overlap [2]aheadRound

// newOverlap builds the trace's reverse-dependency index, both followers'
// storage and both of r's slots, before any round points into one.
func newOverlap(r *replayer, tr *trace.Trace, opts ScheduleOptions) (*overlap, error) {
	var maxRef sim.Tick
	ix, err := buildRevDeps(tr, opts, func(_ int, e *trace.Event) { maxRef = max(maxRef, e.RefArrive) })
	if err != nil {
		return nil, err
	}
	o, n := new(overlap), len(tr.Events)
	for i := range o {
		// How many derived events wait to be injected, and how many wait to
		// be delivered by the predecessor, depends on how far a round lags
		// its predecessor on the host: room for every event keeps a lagging
		// round from growing its follower's storage.
		f := &o[i].follower
		f.tr, f.ix, f.maxRef = tr, ix, maxRef
		f.dueQueue = newDueQueue()
		f.pending.Grow(n)
		f.open = make([]int32, 0, n)
	}
	r.fabric(1)
	return o, nil
}

// follow starts round on slot, the one its predecessor does not use,
// deriving into next from the predecessor's schedule pin and the other slot's
// arrivals and log.
func (o *overlap) follow(r *replayer, slot, round int, pin, next []sim.Tick, release func(), labeled func(int, string, func() error) error) *aheadRound {
	a, n := &o[slot], r.meta.NumEvents
	// The round's arrival vector exists before its goroutine reads it, and
	// the predecessor's before the round does.
	own, pred := &r.slots[slot], &r.slots[1-slot]
	own.arrivals(n)
	own.armLog(n)
	a.pin, a.parr, a.plog, a.next = pin, pred.arrivals(n), pred.log, next
	a.reset()
	a.slot, a.spare, a.done = slot, release, make(chan struct{})
	a.res, a.err, a.panic = ReplayResult{}, nil, nil
	go func() {
		defer close(a.done)
		defer func() {
			if a.spare != nil {
				a.spare()
			}
		}()
		defer func() {
			if v := recover(); v != nil {
				a.panic = v
			}
		}()
		a.err = labeled(round, "replay", func() (err error) {
			a.res, err = r.replay(slot, a.next, &a.follower)
			return err
		})
	}()
	return a
}
