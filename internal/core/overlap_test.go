package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"onocsim/internal/config"
	"onocsim/internal/enoc"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// grantAlways is a Correct spare that always has a slot: every round after
// the first overlaps the one before it.
func grantAlways() func() { return func() {} }

// boundTrace is five events: roots 1 and 2, event 3 on 1, event 4 on 2 and
// 3, event 5 on 4.
func boundTrace() *trace.Trace {
	dep := func(on trace.EventID) trace.Dep { return trace.Dep{On: on, Class: trace.DepProgram} }
	tr := &trace.Trace{Nodes: 4, Workload: "bound", RefMakespan: 100}
	for i, e := range []trace.Event{
		{Gap: 2},
		{Gap: 5},
		{Gap: 1, Deps: []trace.Dep{dep(1)}},
		{Gap: 0, Deps: []trace.Dep{dep(2), dep(3)}},
		{Gap: 3, Deps: []trace.Dep{dep(4)}},
	} {
		e.ID, e.Src, e.Dst, e.Bytes = trace.EventID(i+1), i%4, (i+1)%4, 8
		tr.Events = append(tr.Events, e)
	}
	return tr
}

// newTestFollower is a follower of boundTrace whose predecessor replayed pin
// and delivered at parr, fed by hand through plog.
func newTestFollower(t *testing.T, plog *deliveryLog) *follower {
	t.Helper()
	tr := boundTrace()
	ix, err := buildRevDeps(tr, ScheduleOptions{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := len(tr.Events)
	plog.reset(n)
	f := &follower{
		tr: tr, ix: ix, plog: plog,
		// Latencies 10, 4, 4, 5 and 10 cycles.
		pin:      []sim.Tick{2, 5, 10, 20, 30},
		parr:     []sim.Tick{12, 9, 14, 25, 40},
		next:     make([]sim.Tick, n),
		dueQueue: newDueQueue(),
	}
	f.reset()
	return f
}

// TestOverlapBound walks a follower through its predecessor's deliveries one
// at a time and checks, after each, the schedule derived so far and the
// bound L = 1 + min over derived-but-undelivered events of their injection:
// the cycle below which the follower's injections are all known.
func TestOverlapBound(t *testing.T) {
	var plog deliveryLog
	f := newTestFollower(t, &plog)
	const u = -1 // underived
	for _, step := range []struct {
		deliver int // 0-based event the predecessor delivers, −1 for none
		next    [5]sim.Tick
		bound   sim.Tick
	}{
		{-1, [5]sim.Tick{2, 5, u, u, u}, 3},   // roots derived, both open
		{1, [5]sim.Tick{2, 5, u, u, u}, 3},    // event 2 delivered: 4 hears 5+4
		{0, [5]sim.Tick{2, 5, 13, u, u}, 14},  // event 3 = 2+10+1
		{2, [5]sim.Tick{2, 5, 13, 17, u}, 18}, // event 4 = max(9, 13+4) + 0
		{3, [5]sim.Tick{2, 5, 13, 17, 25}, sim.Never},
	} {
		if step.deliver >= 0 {
			plog.publish(step.deliver)
		}
		f.consume()
		for i, want := range step.next {
			derived := f.mark[i]&markDerived != 0
			if (want == u) == derived || (derived && f.next[i] != want) {
				t.Fatalf("after delivering event %d: event %d derived %v at %d, want %d", step.deliver+1, i+1, derived, f.next[i], want)
			}
		}
		if got := f.bound(); got != step.bound {
			t.Fatalf("after delivering event %d: bound %d, want %d", step.deliver+1, got, step.bound)
		}
	}
	select {
	case <-f.derived:
	default:
		t.Fatal("every event derived, but the derived channel is open")
	}
}

// TestOverlapGuardPanics: a follower that has released cycles past where an
// event then derives would inject it late, so it panics instead.
func TestOverlapGuardPanics(t *testing.T) {
	var plog deliveryLog
	f := newTestFollower(t, &plog)
	f.clock = 20
	plog.publish(1)
	plog.publish(0)
	defer func() {
		if v := recover(); v == nil || !strings.Contains(fmt.Sprint(v), "not after its clock") {
			t.Fatalf("recovered %v, want the clock guard's panic", v)
		}
	}()
	f.consume() // derives event 3 at cycle 13 ≤ 20
}

// faultyNet is a fabric that misbehaves once its clock passes at: it panics,
// or drops every delivery after.
type faultyNet struct {
	noc.Network
	at    sim.Tick
	panic bool
}

func (n *faultyNet) Tick() {
	if n.panic && n.Now() > n.at {
		panic("faulty fabric")
	}
	n.Network.Tick()
}

func (n *faultyNet) SetDeliver(fn noc.DeliverFunc) {
	n.Network.SetDeliver(func(m *noc.Message) {
		if n.panic || n.Now() <= n.at {
			fn(m)
		}
	})
}

// TestOverlappedCorrectionFailuresLeaveNoGoroutine: a fabric that panics or
// swallows messages, in the round running ahead or in the one it follows,
// fails the correction — the panic resurfaces in Correct's goroutine, as it
// would without overlap — and leaves no goroutine behind.
func TestOverlappedCorrectionFailuresLeaveNoGoroutine(t *testing.T) {
	tr := slowTrace()
	cfg := neverConverge()
	base := runtime.NumGoroutine()
	for _, tc := range []struct {
		name     string
		instance int // the faulty fabric: 1 runs round 0, 2 round 1 beside it
		panic    bool
	}{
		{"panic ahead", 2, true},
		{"panic behind", 1, true},
		{"swallow ahead", 2, false},
		{"swallow behind", 1, false},
	} {
		built := 0
		factory := func() noc.Network {
			built++
			net := contendedIdeal()
			if built == tc.instance {
				return &faultyNet{Network: net, at: 40, panic: tc.panic}
			}
			return net
		}
		var released int
		spare := func() func() { return func() { released++ } }
		var err error
		recovered := func() (v any) {
			defer func() { v = recover() }()
			_, _, err = Correct(context.Background(), factory, tr, cfg, 0, nil, nil, nil, spare)
			return nil
		}()
		if tc.panic && recovered != "faulty fabric" {
			t.Fatalf("%s: recovered %v, want the fabric's panic", tc.name, recovered)
		}
		if !tc.panic && (recovered != nil || err == nil || !strings.Contains(err.Error(), "did not drain")) {
			t.Fatalf("%s: recovered %v, err %v, want a drain error", tc.name, recovered, err)
		}
		for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines after the correction, %d before", tc.name, runtime.NumGoroutine(), base)
			}
		}
		if released == 0 {
			t.Fatalf("%s: no spare slot was released", tc.name)
		}
	}
}

// TestOverlappedRoundAllocatesNoEventVectors: an overlapped correction
// reuses its two lanes' per-event storage from round to round, so an extra
// round of a 2^14-event resident correction allocates at most 64 KiB, where
// one new int64 vector alone is 128 KiB. How far a round running ahead lags
// the one it follows is host timing, and the overflow of its injection
// calendar past the ring grows in whichever round first lags most, so the
// cost is the least of three trials: a vector allocated every round shows in
// all of them.
func TestOverlappedRoundAllocatesNoEventVectors(t *testing.T) {
	tr := randomTrace(9, 1<<14, 16)
	const few, many, bound = 3, 7, 64 << 10
	alloc := func(rounds int) uint64 {
		cfg := config.Default().SCTM
		cfg.MakespanTolerance, cfg.MaxIterations = 0, rounds
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, _, err := Correct(context.Background(), contendedIdeal, tr, cfg, 0, nil, nil, nil, grantAlways)
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Iterations) != rounds {
			t.Fatalf("the correction stopped after %d rounds, want %d", len(res.Iterations), rounds)
		}
		return after.TotalAlloc - before.TotalAlloc
	}
	perRound := math.Inf(1)
	for range 3 {
		a, b := alloc(few), alloc(many)
		perRound = min(perRound, (float64(b)-float64(a))/(many-few))
		t.Logf("%d rounds allocate %d B, %d rounds %d B", few, a, many, b)
	}
	t.Logf("%.0f B per extra round", perRound)
	if perRound > bound {
		t.Errorf("an extra overlapped round allocates %.0f B, want ≤ %d", perRound, bound)
	}
}

// TestCoupledSeededCorrectionTakesNoSpare: a loop seeded coupled replays the
// fixpoint in round 0 and stops there with Delta 0, so it asks for no spare
// slot, neither run through nor resumed from a park before round 0, and its
// result is the serial loop's.
func TestCoupledSeededCorrectionTakesNoSpare(t *testing.T) {
	tr := slowTrace()
	cfg := config.Default()
	cfg.SCTM.Seed = "coupled"
	for name, factory := range map[string]NetworkFactory{
		"mesh":  func() noc.Network { return enoc.New(16, cfg.Mesh) },
		"ideal": contendedIdeal,
	} {
		want, _, err := Correct(context.Background(), factory, tr, cfg.SCTM, 0, nil, nil, nil, nil)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(want.Iterations) != 1 || want.Iterations[0].Delta != 0 {
			t.Fatalf("%s: the coupled-seeded loop ran %+v, want one round at Delta 0", name, want.Iterations)
		}
		asked := 0
		spare := func() func() {
			asked++
			return func() {}
		}
		got, _, err := Correct(context.Background(), factory, tr, cfg.SCTM, 0, nil, nil, nil, spare)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the correction offered a spare differs from the serial one", name)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		_, state, err := Correct(ctx, factory, tr, cfg.SCTM, 0, nil, nil, nil, spare)
		if !errors.Is(err, ErrParked) || state == nil {
			t.Fatalf("%s: a cancelled correction returned %v, want a park", name, err)
		}
		got, _, err = Correct(context.Background(), factory, tr, cfg.SCTM, 0, nil, state, nil, spare)
		if err != nil {
			t.Fatalf("%s: resume: %v", name, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%s: the correction resumed from before round 0 differs from the serial one", name)
		}
		if asked != 0 {
			t.Errorf("%s: a coupled-seeded correction asked for a spare slot %d times", name, asked)
		}
	}
}
