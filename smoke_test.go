package onocsim

import (
	"context"
	"testing"
)

// The tests run every operation through a session, as callers do: uncached is
// the nil session (each call simulates afresh), bg the context of a caller
// that never cancels.
var (
	uncached *Session
	bg       = context.Background()
)

// smallConfig returns a fast configuration for smoke/integration tests.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.System.Cores = 16
	cfg.Workload.Kernel = "stencil"
	cfg.Workload.Scale = 4
	cfg.Workload.Iterations = 2
	cfg.MaxCycles = 5_000_000
	return cfg
}

func TestSmokeExecutionDrivenAllFabrics(t *testing.T) {
	for _, kind := range []NetworkKind{IdealNet, Electrical, Optical} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			truth, err := uncached.RunExecutionDrivenContext(bg, smallConfig(), kind)
			if err != nil {
				t.Fatalf("execution-driven on %s: %v", kind, err)
			}
			if truth.Makespan <= 0 {
				t.Fatalf("non-positive makespan %d", truth.Makespan)
			}
			if truth.Messages == 0 {
				t.Fatalf("no messages simulated")
			}
			t.Logf("%s: makespan=%d meanLat=%.1f msgs=%d", kind, truth.Makespan, truth.MeanLatency, truth.Messages)
		})
	}
}

func TestSmokeFullStudy(t *testing.T) {
	study, err := uncached.RunStudyContext(bg, smallConfig(), Optical)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("truth makespan=%d naive=%d (err %.1f%%) sctm=%d (err %.1f%%, %d iters, converged=%v) coupled=%d (err %.1f%%)",
		study.Truth.Makespan,
		study.Naive.Makespan, study.NaiveAcc.MakespanErr*100,
		study.SCTM.Final.Makespan, study.SCTMAcc.MakespanErr*100,
		len(study.SCTM.Iterations), study.SCTM.Converged,
		study.Coupled.Makespan, study.CoupAcc.MakespanErr*100)
	if study.SCTMAcc.MakespanErr >= study.NaiveAcc.MakespanErr && study.NaiveAcc.MakespanErr > 0.05 {
		t.Errorf("self-correction (%.2f%%) did not improve on naive replay (%.2f%%)",
			study.SCTMAcc.MakespanErr*100, study.NaiveAcc.MakespanErr*100)
	}
}
