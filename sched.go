package onocsim

import (
	"context"
	"sync"
)

// SlotClass coarsely prices an admission request against a SlotScheduler's
// capacity: the one vocabulary for what a request costs. A job's operation
// implies its class, the experiment registry declares one per experiment, and
// the scheduler queues per class so bursts of heavy work cannot starve cheap
// probes and vice versa.
type SlotClass uint8

const (
	// SlotLight requests are analytic or near-instant.
	SlotLight SlotClass = iota
	// SlotMedium requests run a handful of simulations.
	SlotMedium
	// SlotHeavy requests sweep many full-system simulations.
	SlotHeavy

	numSlotClasses
)

// String names the class for logs and stats.
func (c SlotClass) String() string {
	switch c {
	case SlotLight:
		return "light"
	case SlotMedium:
		return "medium"
	case SlotHeavy:
		return "heavy"
	default:
		return "unknown"
	}
}

// Units is the class's weight: the admission units one request of it claims.
// The weights are deliberately coarse — they keep a burst of heavy requests
// from monopolizing a budget, not model cost precisely.
func (c SlotClass) Units() int {
	switch c {
	case SlotLight:
		return 1
	case SlotHeavy:
		return 4
	default:
		return 2
	}
}

// SlotStats is a snapshot of a SlotScheduler's admission traffic.
type SlotStats struct {
	// Capacity is the fixed budget in admission units.
	Capacity int `json:"capacity"`
	// InUse is how many units admitted requests currently hold.
	InUse int `json:"in_use"`
	// Queued is how many requests are waiting for admission right now.
	Queued int `json:"queued"`
	// Admitted counts grants over the scheduler's lifetime.
	Admitted uint64 `json:"admitted"`
	// Cancelled counts requests that gave up (context cancelled) while
	// queued — each one released its claim without ever running.
	Cancelled uint64 `json:"cancelled"`
}

// slotWaiter is one queued admission request. ready is closed exactly once,
// under the scheduler lock, when the grant lands; granted disambiguates the
// race between a grant and a cancellation.
type slotWaiter struct {
	class   SlotClass
	cost    int
	ready   chan struct{}
	granted bool
}

// SlotScheduler is a context-aware weighted fair admission scheduler: the
// generalization of the process-wide simulation-slot semaphore. Requests
// acquire cost units of a fixed capacity; when the capacity is exhausted
// they queue per cost class, and freed units are granted round-robin across
// the classes with waiters so no class starves behind a burst of another.
// Within a class, admission is FIFO. When the rotation selects a head whose
// cost does not yet fit, granting stops entirely and freed capacity
// accumulates toward that head — a large request is never bypassed
// indefinitely by a stream of small ones.
//
// A waiter whose context is cancelled while queued releases its admission
// claim and returns the context's error: a disconnected client stops
// occupying the queue instead of running an orphaned simulation.
//
// The zero value is not usable; construct with NewSlotScheduler.
type SlotScheduler struct {
	mu       sync.Mutex
	capacity int
	inUse    int
	queues   [numSlotClasses][]*slotWaiter
	rr       SlotClass
	admitted uint64
	canceled uint64
}

// NewSlotScheduler returns a scheduler over the given capacity in admission
// units; capacities below one are raised to one.
func NewSlotScheduler(capacity int) *SlotScheduler {
	if capacity < 1 {
		capacity = 1
	}
	return &SlotScheduler{capacity: capacity}
}

// clampCost normalizes a request cost: at least one unit, and never more
// than the whole capacity (a cost that can never fit would queue forever).
func (s *SlotScheduler) clampCost(cost int) int {
	if cost < 1 {
		cost = 1
	}
	if cost > s.capacity {
		cost = s.capacity
	}
	return cost
}

// Acquire claims cost units of the capacity, blocking until they are granted
// or ctx is done. A nil error means the units are held and must be handed
// back via Release with the same cost. Cancellation while queued removes the
// waiter and releases nothing; cancellation that races an in-flight grant
// returns the units before reporting the context error, so accounting stays
// exact either way.
func (s *SlotScheduler) Acquire(ctx context.Context, class SlotClass, cost int) error {
	if class >= numSlotClasses {
		class = SlotMedium
	}
	cost = s.clampCost(cost)
	if err := ctx.Err(); err != nil {
		s.mu.Lock()
		s.canceled++
		s.mu.Unlock()
		return err
	}
	s.mu.Lock()
	// Bypass-free fast path: immediate admission only when nobody queues,
	// otherwise a stream of small requests could starve a queued big one.
	if s.queuedLocked() == 0 && s.inUse+cost <= s.capacity {
		s.inUse += cost
		s.admitted++
		s.mu.Unlock()
		return nil
	}
	w := &slotWaiter{class: class, cost: cost, ready: make(chan struct{})}
	s.queues[class] = append(s.queues[class], w)
	s.mu.Unlock()

	select {
	case <-w.ready:
		return nil
	case <-ctx.Done():
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if w.granted {
		// The grant landed between ctx.Done firing and the lock: hand the
		// units straight back so the claim never leaks.
		s.releaseLocked(w.cost)
		s.canceled++
		return ctx.Err()
	}
	q := s.queues[w.class]
	for i, qw := range q {
		if qw == w {
			s.queues[w.class] = append(q[:i], q[i+1:]...)
			break
		}
	}
	s.canceled++
	return ctx.Err()
}

// Release hands back cost units claimed by a successful Acquire and grants
// them onward to queued waiters.
func (s *SlotScheduler) Release(cost int) {
	cost = s.clampCost(cost)
	s.mu.Lock()
	s.releaseLocked(cost)
	s.mu.Unlock()
}

func (s *SlotScheduler) releaseLocked(cost int) {
	s.inUse -= cost
	if s.inUse < 0 {
		s.inUse = 0
	}
	s.grantLocked()
}

// queuedLocked counts waiters across all class queues.
func (s *SlotScheduler) queuedLocked() int {
	n := 0
	for _, q := range s.queues {
		n += len(q)
	}
	return n
}

// grantLocked admits queued waiters while capacity lasts: round-robin across
// the classes with waiters, FIFO within a class. When the selected head does
// not fit, granting stops — the rotation cursor stays on that class, so
// freed capacity accumulates toward it instead of leaking past it.
func (s *SlotScheduler) grantLocked() {
	for {
		class, ok := s.nextClassLocked()
		if !ok {
			return
		}
		w := s.queues[class][0]
		if s.inUse+w.cost > s.capacity {
			return
		}
		s.queues[class] = s.queues[class][1:]
		s.inUse += w.cost
		s.admitted++
		s.rr = (class + 1) % numSlotClasses
		w.granted = true
		close(w.ready)
	}
}

// nextClassLocked finds the first class with waiters, scanning from the
// round-robin cursor.
func (s *SlotScheduler) nextClassLocked() (SlotClass, bool) {
	for i := SlotClass(0); i < numSlotClasses; i++ {
		c := (s.rr + i) % numSlotClasses
		if len(s.queues[c]) > 0 {
			return c, true
		}
	}
	return 0, false
}

// Stats returns a snapshot of the scheduler's admission traffic.
func (s *SlotScheduler) Stats() SlotStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SlotStats{
		Capacity:  s.capacity,
		InUse:     s.inUse,
		Queued:    s.queuedLocked(),
		Admitted:  s.admitted,
		Cancelled: s.canceled,
	}
}
