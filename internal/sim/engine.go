package sim

import (
	"fmt"
)

// engineSpan is the engine's calendar ring in cycles: bank and memory
// service delays are tens of cycles, so nearly every event lands in the ring
// and the rest wait in the calendar's overflow heap.
const engineSpan = 256

// Engine is a deterministic discrete-event scheduler: events run in (time,
// scheduling order), a total and deterministic order. Events wait on a
// Calendar, so scheduling performs no per-event allocation beyond the
// caller's closure once the calendar has reached its peak. Engine is not safe
// for concurrent use; each simulation owns exactly one goroutine-confined
// engine, built by NewEngine.
type Engine struct {
	now   Tick
	queue Calendar[func()]

	// Executed counts events that have fired; it is the canonical measure
	// of simulation effort used by the R2 cost experiment.
	Executed uint64
}

// NewEngine returns an empty engine positioned at time zero.
func NewEngine() *Engine { return &Engine{queue: NewCalendar[func()](engineSpan)} }

// Now returns the current simulated time.
func (e *Engine) Now() Tick { return e.now }

// Pending returns the number of scheduled, not-yet-executed events.
func (e *Engine) Pending() int { return e.queue.Len() }

// NextAt returns the firing time of the earliest pending event. ok is false
// when the queue is empty. Owners use it to fast-forward across provably
// idle stretches.
func (e *Engine) NextAt() (at Tick, ok bool) {
	return e.queue.NextAt(), e.queue.Len() > 0
}

// Schedule enqueues fn to run at absolute time at. Scheduling in the past is
// a programming error and panics: silently reordering time would destroy the
// determinism contract.
func (e *Engine) Schedule(at Tick, fn func()) {
	if at < e.now {
		panic(fmt.Sprintf("sim: schedule at %d before now %d", at, e.now))
	}
	e.queue.Push(at, fn)
}

// Step executes the single next event, advancing time to it. It reports
// whether an event was executed.
func (e *Engine) Step() bool {
	if e.queue.Len() == 0 {
		return false
	}
	e.now = e.queue.NextAt()
	fn := e.queue.Pop()
	e.Executed++
	fn()
	return true
}

// RunUntil executes events with time ≤ deadline. Events scheduled beyond the
// deadline remain queued; time advances to the deadline if the queue runs
// dry earlier, mirroring how a synchronous co-simulation window behaves.
func (e *Engine) RunUntil(deadline Tick) Tick {
	for e.queue.NextAt() <= deadline && e.Step() {
	}
	if e.now < deadline {
		e.now = deadline
	}
	return e.now
}
