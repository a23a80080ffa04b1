package onocsim

import (
	"context"
	"sync"
	"testing"
	"time"
)

// waitStats polls the scheduler until cond holds or the deadline passes;
// admission is asynchronous, so tests observe it through the counters.
func waitStats(t *testing.T, s *SlotScheduler, cond func(SlotStats) bool) SlotStats {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := s.Stats()
		if cond(st) {
			return st
		}
		if time.Now().After(deadline) {
			t.Fatalf("condition not reached; stats %+v", st)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestSlotSchedulerImmediateGrant(t *testing.T) {
	s := NewSlotScheduler(2)
	if err := s.Acquire(context.Background(), SlotLight, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.Acquire(context.Background(), SlotHeavy, 1); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.InUse != 2 || st.Admitted != 2 {
		t.Fatalf("stats after two grants: %+v", st)
	}
	s.Release(1)
	s.Release(1)
	if st := s.Stats(); st.InUse != 0 {
		t.Fatalf("stats after releases: %+v", st)
	}
}

// The regression the daemon needed: a caller queued behind a full scheduler
// whose context is cancelled must release its admission claim — before this
// existed, acquireSimSlot blocked unconditionally and a disconnected
// client's simulation ran anyway.
func TestSlotSchedulerCancelWhileQueuedReleasesClaim(t *testing.T) {
	s := NewSlotScheduler(1)
	if err := s.Acquire(context.Background(), SlotMedium, 1); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	errc := make(chan error, 1)
	go func() { errc <- s.Acquire(ctx, SlotMedium, 1) }()
	waitStats(t, s, func(st SlotStats) bool { return st.Queued == 1 })
	cancel()
	if err := <-errc; err != context.Canceled {
		t.Fatalf("cancelled acquire returned %v, want context.Canceled", err)
	}
	st := waitStats(t, s, func(st SlotStats) bool { return st.Queued == 0 })
	if st.Cancelled != 1 {
		t.Fatalf("cancelled counter = %d, want 1 (%+v)", st.Cancelled, st)
	}
	// The abandoned claim must not have consumed capacity: the next
	// release-acquire pair proceeds immediately.
	s.Release(1)
	if err := s.Acquire(context.Background(), SlotMedium, 1); err != nil {
		t.Fatal(err)
	}
	s.Release(1)
}

func TestSlotSchedulerAlreadyCancelledContext(t *testing.T) {
	s := NewSlotScheduler(4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s.Acquire(ctx, SlotLight, 1); err != context.Canceled {
		t.Fatalf("acquire with dead context returned %v", err)
	}
	if st := s.Stats(); st.InUse != 0 || st.Admitted != 0 {
		t.Fatalf("dead-context acquire touched capacity: %+v", st)
	}
}

// Round-robin fairness: a full-capacity heavy request queued behind a
// continuous churn of light acquire/release traffic is admitted anyway —
// once the rotation selects the heavy head, granting stops and freed
// capacity accumulates toward it instead of being re-consumed by lights.
func TestSlotSchedulerHeavyNotStarved(t *testing.T) {
	s := NewSlotScheduler(4)
	// Fill the capacity with four single-unit holders.
	for i := 0; i < 4; i++ {
		if err := s.Acquire(context.Background(), SlotMedium, 1); err != nil {
			t.Fatal(err)
		}
	}
	heavyDone := make(chan struct{})
	go func() {
		if err := s.Acquire(context.Background(), SlotHeavy, 4); err == nil {
			close(heavyDone)
		}
	}()
	waitStats(t, s, func(st SlotStats) bool { return st.Queued == 1 })
	// Churn light traffic: each looper acquires, holds briefly, releases,
	// repeats. Without anti-starvation this stream would re-fill every
	// freed unit and the heavy's 4 units would never accumulate.
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-heavyDone:
					return
				default:
				}
				if err := s.Acquire(context.Background(), SlotLight, 1); err != nil {
					return
				}
				time.Sleep(time.Millisecond)
				s.Release(1)
			}
		}()
	}
	// Drain the original holders one unit at a time under light churn.
	for i := 0; i < 4; i++ {
		time.Sleep(2 * time.Millisecond)
		s.Release(1)
	}
	select {
	case <-heavyDone:
		s.Release(4)
	case <-time.After(10 * time.Second):
		t.Fatal("heavy waiter starved behind light stream")
	}
	wg.Wait()
}

// Costs above capacity clamp instead of queueing forever.
func TestSlotSchedulerClampsOversizedCost(t *testing.T) {
	s := NewSlotScheduler(2)
	if err := s.Acquire(context.Background(), SlotHeavy, 100); err != nil {
		t.Fatal(err)
	}
	if st := s.Stats(); st.InUse != 2 {
		t.Fatalf("oversized cost not clamped: %+v", st)
	}
	s.Release(100)
	if st := s.Stats(); st.InUse != 0 {
		t.Fatalf("oversized release not clamped: %+v", st)
	}
}

// Hammer the scheduler from many goroutines with mixed classes, costs and
// cancellations; accounting must come out exact. Run with -race.
func TestSlotSchedulerConcurrentAccounting(t *testing.T) {
	s := NewSlotScheduler(3)
	var wg sync.WaitGroup
	for i := 0; i < 48; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			class := SlotClass(i % int(numSlotClasses))
			cost := 1 + i%3
			ctx := context.Background()
			if i%5 == 0 {
				var cancel context.CancelFunc
				ctx, cancel = context.WithTimeout(ctx, time.Duration(i%7)*time.Millisecond)
				defer cancel()
			}
			if err := s.Acquire(ctx, class, cost); err != nil {
				return
			}
			time.Sleep(time.Duration(i%3) * time.Millisecond)
			s.Release(cost)
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.InUse != 0 || st.Queued != 0 {
		t.Fatalf("units leaked: %+v", st)
	}
}

// tryAcquire is how a correction takes a spare slot for an overlapped round:
// it never waits, never exceeds capacity, never takes units a queued request
// is owed, and its release hands the units back once however often it is
// called.
func TestSlotSchedulerTryAcquire(t *testing.T) {
	s := NewSlotScheduler(2)
	first := s.tryAcquire(1)
	second := s.tryAcquire(1)
	if first == nil || second == nil {
		t.Fatal("tryAcquire refused a free unit")
	}
	if s.tryAcquire(1) != nil {
		t.Fatalf("tryAcquire exceeded capacity: %+v", s.Stats())
	}
	first()
	first()
	if st := s.Stats(); st.InUse != 1 {
		t.Fatalf("a release called twice left %d units in use, want 1", st.InUse)
	}

	// A request queues behind a full scheduler: a unit freed is its, even
	// when tryAcquire asks first.
	if err := s.Acquire(context.Background(), SlotMedium, 1); err != nil {
		t.Fatal(err)
	}
	granted := make(chan struct{})
	go func() {
		if err := s.Acquire(context.Background(), SlotHeavy, 2); err == nil {
			close(granted)
		}
	}()
	waitStats(t, s, func(st SlotStats) bool { return st.Queued == 1 })
	second()
	if s.tryAcquire(1) != nil {
		t.Fatalf("tryAcquire took a unit while a request queued: %+v", s.Stats())
	}
	s.Release(1)
	<-granted
	if st := s.Stats(); st.InUse != 2 || st.Queued != 0 {
		t.Fatalf("the queued request did not get both units: %+v", st)
	}
	s.Release(2)
	if st := s.Stats(); st.InUse != 0 {
		t.Fatalf("%d units still in use", st.InUse)
	}
}
