package onocsim

import (
	"context"
	"errors"
	"math"
	"reflect"
	"sync"
	"testing"
)

// leaverCtx is the context of a caller that leaves mid-flight, steered from the
// inside so the tests below wait on events and never sleep. started closes at
// the first Err poll — slot admission's, by which time the caller's flight is
// registered in the cache, so whoever asks next joins it. From poll after+1 on
// (one poll at admission, then one per correction round), Err waits for joined
// and then reports the caller gone. Polled by the caller's goroutine only.
type leaverCtx struct {
	context.Context
	after, polls    int
	started, joined chan struct{}
}

func (c *leaverCtx) Err() error {
	if c.polls++; c.polls == 1 {
		close(c.started)
	}
	if c.polls <= c.after {
		return c.Context.Err()
	}
	<-c.joined
	return context.Canceled
}

// closeOnWait installs a progress observer on s that closes the returned
// channel the first time a request for op joins somebody else's flight.
func closeOnWait(s *Session, op string) chan struct{} {
	joined := make(chan struct{})
	var once sync.Once
	s.SetProgress(ProgressFunc(func(ev ProgressEvent) {
		if ev.Kind == ProgressSimWait && ev.Op == op {
			once.Do(func() { close(joined) })
		}
	}))
	return joined
}

// Two callers ask for one self-correction; the second joins the first's flight,
// and then the first — the one computing — leaves at a round boundary. The
// flight parks and dies. The caller that left gets its own park back (partial
// trajectory, ErrParked) and asks nothing again; the survivor, whose context is
// alive, asks again without anyone above the session telling it to, takes the
// parked run's stash, and returns exactly what an uninterrupted run returns.
// That it resumed rather than restarted is proven as in
// TestSessionResumesParkedCorrection: its poll budget covers the remaining
// rounds and is far too small for all of them.
func TestSessionHealsCorrectionKilledByAnotherCaller(t *testing.T) {
	cfg := smallConfig()
	cfg.SCTM.MaxIterations = 10
	cfg.SCTM.MakespanTolerance = 0

	ref := NewSession("")
	refTrace, _, err := ref.CaptureTraceContext(bg, cfg, IdealNet)
	if err != nil {
		t.Fatal(err)
	}
	full, err := ref.RunSelfCorrectionContext(bg, cfg, refTrace, Optical)
	if err != nil {
		t.Fatal(err)
	}

	s := NewSession("")
	tr, _, err := s.CaptureTraceContext(bg, cfg, IdealNet)
	if err != nil {
		t.Fatal(err)
	}
	before := s.CacheStats()
	const rounds = 4
	leaver := &leaverCtx{Context: bg, after: 1 + rounds, started: make(chan struct{}), joined: closeOnWait(s, "sctm")}
	var parked CorrectionResult
	var leaverErr error
	left := make(chan struct{})
	go func() {
		defer close(left)
		parked, leaverErr = s.RunSelfCorrectionContext(leaver, cfg, tr, Optical)
	}()
	<-leaver.started

	// One poll to learn the flight it waited on was not killed by itself, one
	// at admission, one per remaining round, one spare.
	budget := 1 + 1 + (cfg.SCTM.MaxIterations - rounds) + 1
	if budget >= 1+1+cfg.SCTM.MaxIterations {
		t.Fatalf("budget %d would cover a restart", budget)
	}
	survivor, err := s.RunSelfCorrectionContext(&resumePollCtx{Context: bg, remaining: budget}, cfg, tr, Optical)
	<-left
	if err != nil {
		t.Fatalf("survivor failed (not retried, or restarted from scratch?): %v", err)
	}
	if !reflect.DeepEqual(survivor, full) {
		t.Fatalf("survivor's result diverged from an uninterrupted run's:\n got %+v\nwant %+v", survivor, full)
	}
	if !errors.Is(leaverErr, ErrParked) || parked.Converged || len(parked.Iterations) != rounds ||
		!reflect.DeepEqual(parked.Iterations, full.Iterations[:rounds]) {
		t.Fatalf("the caller that left: err = %v, %d rounds; want its own park after %d", leaverErr, len(parked.Iterations), rounds)
	}
	// Two flights for the key — the killed one and the survivor's retry — and
	// one join: the caller that left did not come back.
	after := s.CacheStats()
	if after.Misses != before.Misses+2 || after.Waits != before.Waits+1 {
		t.Fatalf("flights %d, joins %d; want 2 and 1 (%+v -> %+v)", after.Misses-before.Misses, after.Waits-before.Waits, before, after)
	}
	hits := after.Hits
	if _, err := s.RunSelfCorrectionContext(bg, cfg, tr, Optical); err != nil || s.CacheStats().Hits != hits+1 {
		t.Fatalf("healed result not cached: err = %v, hits %d -> %d", err, hits, s.CacheStats().Hits)
	}
}

// The same one layer down, where there is no round boundary to park at: a
// capture whose computing caller is cancelled while it queues for a simulation
// slot fails that caller with its context's error and nobody else — the caller
// that joined the flight captures the trace itself.
func TestSessionHealsCaptureKilledInTheSlotQueue(t *testing.T) {
	cfg := smallConfig()
	want, _, err := NewSession("").CaptureTraceContext(bg, cfg, IdealNet)
	if err != nil {
		t.Fatal(err)
	}
	// Hold every simulation slot, so a capture queues until the test lets go.
	slots := simSched.Stats().Capacity
	for i := 0; i < slots; i++ {
		if err := simSched.Acquire(bg, SlotMedium, 1); err != nil {
			t.Fatal(err)
		}
	}
	var letGo sync.Once
	release := func() {
		letGo.Do(func() {
			for i := 0; i < slots; i++ {
				simSched.Release(1)
			}
		})
	}
	defer release()

	s := NewSession("")
	joined := closeOnWait(s, "capture")
	ctx, cancel := context.WithCancel(bg)
	defer cancel()
	leaver := &leaverCtx{Context: ctx, after: math.MaxInt, started: make(chan struct{})}
	var leaverTrace *Trace
	var leaverErr error
	left := make(chan struct{})
	go func() {
		defer close(left)
		leaverTrace, _, leaverErr = s.CaptureTraceContext(leaver, cfg, IdealNet)
	}()
	<-leaver.started

	var got *Trace
	var survivorErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		got, _, survivorErr = s.CaptureTraceContext(bg, cfg, IdealNet)
	}()
	<-joined
	cancel()
	<-left
	if !errors.Is(leaverErr, context.Canceled) || leaverTrace != nil {
		t.Fatalf("the caller that left: trace %v, err = %v; want its own cancellation", leaverTrace != nil, leaverErr)
	}
	release()
	<-done
	if survivorErr != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("survivor: err = %v, trace equal to a fresh capture: %v", survivorErr, reflect.DeepEqual(got, want))
	}
	if st := s.CacheStats(); st.Misses != 2 || st.Waits != 1 {
		t.Fatalf("flights %d, joins %d; want 2 (the killed one, the survivor's retry) and 1", st.Misses, st.Waits)
	}
}
