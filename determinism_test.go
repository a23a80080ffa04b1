package onocsim

import (
	"reflect"
	"testing"

	"onocsim/internal/core"
	"onocsim/internal/noc"
)

// freshOnly hides a fabric's Resettable implementation, forcing the
// self-correction loop onto its fresh-network-per-round fallback. The
// embedded interface forwards the rest of the contract untouched.
type freshOnly struct{ noc.Network }

// sequentialStudy is the pre-pipeline reference schedule: every phase runs
// one after another on the calling goroutine, and self-correction builds a
// fresh fabric for every round.
func sequentialStudy(t *testing.T, cfg Config, target NetworkKind) *Study {
	t.Helper()
	tr, _, err := uncached.CaptureTraceContext(bg, cfg, IdealNet)
	if err != nil {
		t.Fatalf("capture: %v", err)
	}
	truth, err := uncached.RunExecutionDrivenContext(bg, cfg, target)
	if err != nil {
		t.Fatalf("ground truth: %v", err)
	}
	naive, err := uncached.RunNaiveReplayContext(bg, cfg, tr, target)
	if err != nil {
		t.Fatalf("naive: %v", err)
	}
	coupled, err := uncached.RunCoupledReplayContext(bg, cfg, tr, target)
	if err != nil {
		t.Fatalf("coupled: %v", err)
	}
	factory, err := NetworkFactory(cfg, target)
	if err != nil {
		t.Fatalf("factory: %v", err)
	}
	sctm, err := core.SelfCorrect(func() noc.Network { return freshOnly{factory()} }, tr, cfg.SCTM)
	if err != nil {
		t.Fatalf("self-correction: %v", err)
	}
	return &Study{
		Workload: cfg.Workload.Kernel,
		Target:   target,
		Truth:    truth,
		Trace:    tr,
		Naive:    naive,
		Coupled:  coupled,
		SCTM:     sctm,
		NaiveAcc: Compare(naive, truth),
		CoupAcc:  Compare(coupled, truth),
		SCTMAcc:  Compare(sctm.Final, truth),
	}
}

// replaysEqual compares everything a replay result determines, ignoring the
// NetStats pointer (compared separately where it matters).
func replaysEqual(t *testing.T, phase string, got, want ReplayResult) {
	t.Helper()
	if got.Makespan != want.Makespan {
		t.Errorf("%s: makespan %d, want %d", phase, got.Makespan, want.Makespan)
	}
	if got.MeanLatency != want.MeanLatency {
		t.Errorf("%s: mean latency %g, want %g", phase, got.MeanLatency, want.MeanLatency)
	}
	if got.Cycles != want.Cycles {
		t.Errorf("%s: cycles %d, want %d", phase, got.Cycles, want.Cycles)
	}
	if !reflect.DeepEqual(got.Inject, want.Inject) {
		t.Errorf("%s: per-event injection times diverge", phase)
	}
	if !reflect.DeepEqual(got.Arrive, want.Arrive) {
		t.Errorf("%s: per-event arrival times diverge", phase)
	}
}

// TestStudyDeterminism locks in the two performance shortcuts that must be
// observationally invisible: the pipelined RunStudy schedule (phases racing
// on separate goroutines) and the reset-and-reuse fabric path inside the
// self-correction loop. For every fabric kind, the pipelined study must be
// bit-identical to the sequential, fresh-fabric-per-round reference.
func TestStudyDeterminism(t *testing.T) {
	for _, kind := range []NetworkKind{IdealNet, Electrical, Optical, Hybrid} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			t.Parallel()
			cfg := smallConfig()
			got, err := uncached.RunStudyContext(bg, cfg, kind)
			if err != nil {
				t.Fatal(err)
			}
			want := sequentialStudy(t, cfg, kind)

			if got.Truth.Makespan != want.Truth.Makespan {
				t.Errorf("truth: makespan %d, want %d", got.Truth.Makespan, want.Truth.Makespan)
			}
			if got.Truth.MeanLatency != want.Truth.MeanLatency {
				t.Errorf("truth: mean latency %g, want %g", got.Truth.MeanLatency, want.Truth.MeanLatency)
			}
			if got.Truth.Messages != want.Truth.Messages {
				t.Errorf("truth: %d messages, want %d", got.Truth.Messages, want.Truth.Messages)
			}
			if !reflect.DeepEqual(got.Trace.Events, want.Trace.Events) {
				t.Error("captured traces diverge")
			}
			replaysEqual(t, "naive", got.Naive, want.Naive)
			replaysEqual(t, "coupled", got.Coupled, want.Coupled)
			replaysEqual(t, "sctm", got.SCTM.Final, want.SCTM.Final)
			if !reflect.DeepEqual(got.SCTM.Iterations, want.SCTM.Iterations) {
				t.Errorf("sctm: iteration traces diverge:\n reuse: %+v\n fresh: %+v",
					got.SCTM.Iterations, want.SCTM.Iterations)
			}
			if got.SCTM.Converged != want.SCTM.Converged {
				t.Errorf("sctm: converged %v, want %v", got.SCTM.Converged, want.SCTM.Converged)
			}
			if got.SCTM.TotalCycles != want.SCTM.TotalCycles {
				t.Errorf("sctm: total cycles %d, want %d", got.SCTM.TotalCycles, want.SCTM.TotalCycles)
			}
			if got.NaiveAcc != want.NaiveAcc || got.CoupAcc != want.CoupAcc || got.SCTMAcc != want.SCTMAcc {
				t.Error("accuracy summaries diverge")
			}
		})
	}
}
