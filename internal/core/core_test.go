package core

import (
	"context"
	"errors"
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// chainTrace builds a linear dependency chain across nodes:
// e1: 0→1 gap 10; e2: 1→2 gap 5 (causal e1); e3: 2→3 gap 5 (causal e2).
func chainTrace() *trace.Trace {
	return &trace.Trace{
		Nodes:       4,
		Workload:    "chain",
		RefMakespan: 200,
		Events: []trace.Event{
			{ID: 1, Src: 0, Dst: 1, Bytes: 16, Gap: 10, RefInject: 10, RefArrive: 60},
			{ID: 2, Src: 1, Dst: 2, Bytes: 16, Gap: 5,
				Deps:      []trace.Dep{{On: 1, Class: trace.DepCausal}},
				RefInject: 65, RefArrive: 115},
			{ID: 3, Src: 2, Dst: 3, Bytes: 16, Gap: 5,
				Deps:      []trace.Dep{{On: 2, Class: trace.DepSync}},
				RefInject: 120, RefArrive: 170},
		},
	}
}

// chainSeed is a round-0 estimate for chainTrace far below the ideal fabric's
// 20 cycles: a deliberately wrong seed for the loop to correct.
var chainSeed = []sim.Tick{3, 3, 3}

func TestScheduleLinearChain(t *testing.T) {
	tr := chainTrace()
	lat := []sim.Tick{20, 20, 20}
	inj := Schedule(tr, lat, ScheduleOptions{})
	// e1 at gap 10; e2 at 10+20+5 = 35; e3 at 35+20+5 = 60.
	want := []sim.Tick{10, 35, 60}
	for i := range want {
		if inj[i] != want[i] {
			t.Fatalf("inject[%d] = %d, want %d (all: %v)", i, inj[i], want[i], inj)
		}
	}
}

func TestScheduleMaxOverDeps(t *testing.T) {
	tr := &trace.Trace{
		Nodes: 2, RefMakespan: 100,
		Events: []trace.Event{
			{ID: 1, Src: 0, Dst: 1, Bytes: 8, Gap: 0, RefInject: 0, RefArrive: 50},
			{ID: 2, Src: 1, Dst: 0, Bytes: 8, Gap: 0, RefInject: 0, RefArrive: 10},
			{ID: 3, Src: 0, Dst: 1, Bytes: 8, Gap: 7,
				Deps:      []trace.Dep{{On: 1, Class: trace.DepCausal}, {On: 2, Class: trace.DepCausal}},
				RefInject: 57, RefArrive: 80},
		},
	}
	inj := Schedule(tr, []sim.Tick{50, 10, 5}, ScheduleOptions{})
	// e3 waits for max(0+50, 0+10) + 7 = 57.
	if inj[2] != 57 {
		t.Fatalf("inject[2] = %d, want 57", inj[2])
	}
}

func TestScheduleAblation(t *testing.T) {
	tr := chainTrace()
	lat := []sim.Tick{20, 20, 20}
	noSync := Schedule(tr, lat, ScheduleOptions{DisableSyncDeps: true})
	// e3's only dep is sync → dropped → injects at its own gap 5.
	if noSync[2] != 5 {
		t.Fatalf("ablated inject[2] = %d, want 5", noSync[2])
	}
	noCausal := Schedule(tr, lat, ScheduleOptions{DisableCausalDeps: true})
	if noCausal[1] != 5 {
		t.Fatalf("ablated inject[1] = %d, want 5", noCausal[1])
	}
	// Program deps always kept.
	if !(ScheduleOptions{DisableSyncDeps: true, DisableCausalDeps: true}).keepDep(trace.DepProgram) {
		t.Fatal("program deps must never be ablated")
	}
}

func TestScheduleLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("mismatched latency slice accepted")
		}
	}()
	Schedule(chainTrace(), []sim.Tick{1}, ScheduleOptions{})
}

func TestMaxScheduleDelta(t *testing.T) {
	a := []sim.Tick{10, 20, 30}
	b := []sim.Tick{12, 15, 30}
	if d := maxScheduleDelta(a, b); d != 5 {
		t.Fatalf("delta = %d, want 5", d)
	}
	if d := maxScheduleDelta(a, a); d != 0 {
		t.Fatalf("self delta = %d", d)
	}
	defer func() {
		if recover() == nil {
			t.Error("length mismatch accepted")
		}
	}()
	maxScheduleDelta(a, b[:2])
}

func idealFactory(nodes int, latency sim.Tick) NetworkFactory {
	return func() noc.Network { return noc.NewIdeal(nodes, latency, 0) }
}

// Every engine entry refuses a malformed resident trace with an error at its
// first pass (trace.Trace.Pass validates): none hands an out-of-range
// endpoint to a fabric, whose Inject panics, or follows a dependency on event
// 0 to index -1.
func TestEnginesRejectInvalidTraces(t *testing.T) {
	inject := []sim.Tick{10, 35, 60}
	engines := map[string]func(tr *trace.Trace) error{
		"NaiveReplay":        func(tr *trace.Trace) error { _, err := NaiveReplay(idealFactory(4, 20)(), tr); return err },
		"NaiveReplaySharded": func(tr *trace.Trace) error { _, err := NaiveReplaySharded(idealFactory(4, 20), tr, 2); return err },
		"NaiveReplaySummaryStream": func(tr *trace.Trace) error {
			_, err := NaiveReplaySummaryStream(idealFactory(4, 20)(), tr)
			return err
		},
		"CoupledReplay": func(tr *trace.Trace) error {
			_, err := CoupledReplay(idealFactory(4, 20)(), tr, ScheduleOptions{})
			return err
		},
		"Correct": func(tr *trace.Trace) error {
			_, _, err := Correct(context.Background(), idealFactory(4, 20), tr, config.Default().SCTM, 1, 0, nil, nil, nil, nil)
			return err
		},
		"ReplaySchedule": func(tr *trace.Trace) error { _, err := ReplaySchedule(idealFactory(4, 20)(), tr, inject); return err },
		"ReplayScheduleStream": func(tr *trace.Trace) error {
			_, err := ReplayScheduleStream(idealFactory(4, 20)(), tr, inject, 0)
			return err
		},
		"ReplayScheduleSharded": func(tr *trace.Trace) error {
			_, err := ReplayScheduleSharded(idealFactory(4, 20), tr, inject, 2)
			return err
		},
	}
	defects := map[string]func(e *trace.Event){
		"bad endpoint":                func(e *trace.Event) { e.Dst = 9 },
		"dependency on 0":             func(e *trace.Event) { e.Deps = []trace.Dep{{On: 0}} },
		"dependency on a later event": func(e *trace.Event) { e.Deps = []trace.Dep{{On: 3}} },
	}
	for engine, run := range engines {
		for defect, apply := range defects {
			t.Run(engine+"/"+defect, func(t *testing.T) {
				tr := chainTrace()
				apply(&tr.Events[1])
				if err := run(tr); err == nil {
					t.Fatal("malformed trace accepted")
				}
			})
		}
	}
}

func TestReplayScheduleOnIdealExact(t *testing.T) {
	tr := chainTrace()
	inj := []sim.Tick{10, 35, 60}
	res, err := ReplaySchedule(idealFactory(4, 20)(), tr, inj)
	if err != nil {
		t.Fatal(err)
	}
	for i := range inj {
		if res.Inject[i] != inj[i] {
			t.Fatalf("realized inject[%d] = %d, want %d", i, res.Inject[i], inj[i])
		}
		if got := res.Arrive[i] - res.Inject[i]; got != 20 {
			t.Fatalf("latency[%d] = %d, want 20", i, got)
		}
	}
	// Makespan = last arrival (80) + capture tail (200-170=30) = 110.
	if res.Makespan != 110 {
		t.Fatalf("makespan = %d, want 110", res.Makespan)
	}
	if res.MeanLatency != 20 {
		t.Fatalf("mean latency = %g", res.MeanLatency)
	}
}

func TestNaiveReplayUsesRecordedTimes(t *testing.T) {
	tr := chainTrace()
	res, err := NaiveReplay(idealFactory(4, 20)(), tr)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range tr.Events {
		if res.Inject[i] != e.RefInject {
			t.Fatalf("naive inject[%d] = %d, want recorded %d", i, res.Inject[i], e.RefInject)
		}
	}
}

func TestCoupledReplayMatchesScheduleOnIdeal(t *testing.T) {
	// On a contention-free fixed-latency fabric, coupled replay must
	// realize exactly the analytic schedule.
	tr := chainTrace()
	res, err := CoupledReplay(idealFactory(4, 20)(), tr, ScheduleOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := Schedule(tr, []sim.Tick{20, 20, 20}, ScheduleOptions{})
	for i := range want {
		if res.Inject[i] != want[i] {
			t.Fatalf("coupled inject[%d] = %d, want %d", i, res.Inject[i], want[i])
		}
	}
}

func TestReplayRejections(t *testing.T) {
	tr := chainTrace()
	// Node mismatch.
	if _, err := ReplaySchedule(idealFactory(8, 20)(), tr, []sim.Tick{0, 0, 0}); err == nil {
		t.Fatal("node mismatch accepted")
	}
	// Wrong schedule length.
	if _, err := ReplaySchedule(idealFactory(4, 20)(), tr, []sim.Tick{0}); err == nil {
		t.Fatal("schedule length mismatch accepted")
	}
	// Non-fresh fabric.
	used := idealFactory(4, 20)()
	used.Tick()
	if _, err := ReplaySchedule(used, tr, []sim.Tick{0, 0, 0}); err == nil {
		t.Fatal("warm fabric accepted")
	}
	if _, err := CoupledReplay(used, tr, ScheduleOptions{}); err == nil {
		t.Fatal("warm fabric accepted by coupled replay")
	}
	if _, err := CoupledReplay(idealFactory(8, 20)(), tr, ScheduleOptions{}); err == nil {
		t.Fatal("node mismatch accepted by coupled replay")
	}
	// The summary tier sets its fabric up on its own, and checks it as the
	// lane method does.
	if _, err := NaiveReplaySummaryStream(idealFactory(8, 20)(), tr); err == nil {
		t.Fatal("node mismatch accepted by the summary replay")
	}
	if _, err := NaiveReplaySummaryStream(used, tr); err == nil {
		t.Fatal("warm fabric accepted by the summary replay")
	}
}

func TestSelfCorrectConvergesOnIdeal(t *testing.T) {
	// On a fixed-latency fabric the fixpoint is exact after one round:
	// measured latencies equal the constant, so round 2's schedule equals
	// round 1's.
	tr := chainTrace()
	cfg := config.Default().SCTM
	cfg.MakespanTolerance = 0 // force the strict schedule criterion
	res, _, err := SelfCorrectParkableCtx(context.Background(), idealFactory(4, 20), tr, cfg, 1, chainSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res.Iterations)
	}
	if len(res.Iterations) > 2 {
		t.Fatalf("took %d rounds on a constant-latency fabric", len(res.Iterations))
	}
	// Final schedule must match the analytic one at latency 20.
	want := Schedule(tr, []sim.Tick{20, 20, 20}, ScheduleOptions{})
	for i := range want {
		if res.Final.Inject[i] != want[i] {
			t.Fatalf("final inject[%d] = %d, want %d", i, res.Final.Inject[i], want[i])
		}
	}
}

func TestSelfCorrectZeroLoadSeed(t *testing.T) {
	tr := chainTrace()
	cfg := config.Default().SCTM
	cfg.MakespanTolerance = 0
	// No seed: the fabric's zero-load latency, exactly right here.
	res, err := SelfCorrect(idealFactory(4, 20), tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || len(res.Iterations) != 1 {
		t.Fatalf("perfect seed should converge in one round: %+v", res.Iterations)
	}
}

func TestSelfCorrectRejectsInvalidTrace(t *testing.T) {
	tr := chainTrace()
	tr.Events[0].Bytes = 0
	if _, err := SelfCorrect(idealFactory(4, 20), tr, config.Default().SCTM); err == nil {
		t.Fatal("invalid trace accepted")
	}
	// The check comes before round 0: a dead context would otherwise park.
	if _, _, err := Correct(&countdownCtx{Context: context.Background()}, idealFactory(4, 20), tr, config.Default().SCTM, 1, 0, nil, nil, nil, nil); err == nil || errors.Is(err, ErrParked) {
		t.Fatalf("invalid resident trace reached the round loop: %v", err)
	}
}

func TestSelfCorrectIterationBudget(t *testing.T) {
	tr := chainTrace()
	cfg := config.Default().SCTM
	cfg.MaxIterations = 1
	cfg.MakespanTolerance = 0
	res, _, err := SelfCorrectParkableCtx(context.Background(), idealFactory(4, 20), tr, cfg, 1, chainSeed, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 1 {
		t.Fatalf("iteration budget ignored: %d rounds", len(res.Iterations))
	}
	if res.TotalCycles != res.Iterations[0].Cycles {
		t.Fatal("total cycles accounting wrong")
	}
}

func TestCompareToTruth(t *testing.T) {
	acc := CompareToTruth(110, 22, 100, 20)
	if acc.MakespanErr != 0.1 {
		t.Fatalf("makespan err = %g", acc.MakespanErr)
	}
	if acc.LatencyErr != 0.1 {
		t.Fatalf("latency err = %g", acc.LatencyErr)
	}
	if acc.TrueMakespan != 100 || acc.EstimatedMakespan != 110 {
		t.Fatal("raw values lost")
	}
}

func TestReplayPreservesEventIdentity(t *testing.T) {
	// Deliveries must map back to the right trace events even when
	// delivered out of injection order (forced via distinct gaps).
	tr := &trace.Trace{
		Nodes: 4, RefMakespan: 300,
		Events: []trace.Event{
			{ID: 1, Src: 0, Dst: 1, Bytes: 8, Gap: 100, RefInject: 100, RefArrive: 150},
			{ID: 2, Src: 2, Dst: 3, Bytes: 8, Gap: 1, RefInject: 1, RefArrive: 51},
		},
	}
	res, err := ReplaySchedule(idealFactory(4, 10)(), tr, []sim.Tick{100, 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Inject[0] != 100 || res.Inject[1] != 1 {
		t.Fatalf("injects %v", res.Inject)
	}
	if res.Arrive[1] >= res.Arrive[0] {
		t.Fatal("expected event 2 to arrive first")
	}
}
