package sim

import (
	"fmt"
)

// Event is a unit of scheduled work. Events are ordered by time, with the
// scheduling sequence number breaking ties so that execution order is total
// and deterministic.
//
// Events are stored by value inside the engine's queue: scheduling performs
// no per-event allocation beyond the caller's closure, and the queue slice
// itself is recycled across the whole run.
type Event struct {
	at  Tick
	seq uint64
	fn  func()
}

// eventHeap is a hand-rolled 4-ary min-heap over Event values ordered by
// (time, seq). A 4-ary heap halves the tree depth of the binary heap the
// standard library would give us, and storing values instead of *Event
// removes both the per-event allocation and the interface{} boxing of
// container/heap — the two dominant allocation sources of the old engine.
type eventHeap []Event

// before is the (time, seq) total order.
func (h eventHeap) before(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// push appends ev and sifts it up.
func (h *eventHeap) push(ev Event) {
	q := append(*h, ev)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !q.before(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

// pop removes and returns the minimum event.
func (h *eventHeap) pop() Event {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = Event{} // release the closure for GC
	q = q[:n]
	// Sift down.
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.before(c, min) {
				min = c
			}
		}
		if !q.before(min, i) {
			break
		}
		q[i], q[min] = q[min], q[i]
		i = min
	}
	*h = q
	return top
}

// Engine is a deterministic discrete-event scheduler. The zero value is
// ready to use. Engine is not safe for concurrent use; each simulation owns
// exactly one goroutine-confined engine.
type Engine struct {
	now   Tick
	seq   uint64
	queue eventHeap

	// Executed counts events that have fired; it is the canonical measure
	// of simulation effort used by the R2 cost experiment.
	Executed uint64
}

// NewEngine returns an empty engine positioned at time zero.
func NewEngine() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() Tick { return e.now }

// Pending returns the number of scheduled, not-yet-executed events.
func (e *Engine) Pending() int { return len(e.queue) }

// NextAt returns the firing time of the earliest pending event. ok is false
// when the queue is empty. Owners use it to fast-forward across provably
// idle stretches.
func (e *Engine) NextAt() (at Tick, ok bool) {
	if len(e.queue) == 0 {
		return 0, false
	}
	return e.queue[0].at, true
}

// Schedule enqueues fn to run at absolute time at. Scheduling in the past is
// a programming error and panics: silently reordering time would destroy the
// determinism contract.
func (e *Engine) Schedule(at Tick, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", at, e.now))
	}
	e.queue.push(Event{at: at, seq: e.seq, fn: fn})
	e.seq++
}

// Step executes the single next event, advancing time to it. It reports
// whether an event was executed.
func (e *Engine) Step() bool {
	if len(e.queue) == 0 {
		return false
	}
	ev := e.queue.pop()
	e.now = ev.at
	e.Executed++
	ev.fn()
	return true
}

// RunUntil executes events with time ≤ deadline. Events scheduled beyond the
// deadline remain queued; time advances to the deadline if the queue runs
// dry earlier, mirroring how a synchronous co-simulation window behaves.
func (e *Engine) RunUntil(deadline Tick) Tick {
	for len(e.queue) > 0 && e.queue[0].at <= deadline {
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}
