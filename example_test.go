package onocsim_test

import (
	"context"
	"fmt"

	"onocsim"
)

// ExampleCompare shows how replay estimates are scored against
// execution-driven ground truth.
func ExampleCompare() {
	truth := onocsim.GroundTruth{Makespan: 10000, MeanLatency: 40}
	replay := onocsim.ReplayResult{Makespan: 10500, MeanLatency: 42}
	acc := onocsim.Compare(replay, truth)
	fmt.Printf("makespan error %.1f%%, latency error %.1f%%\n",
		acc.MakespanErr*100, acc.LatencyErr*100)
	// Output:
	// makespan error 5.0%, latency error 5.0%
}

// ExampleSession_RunStudyContext runs the complete methodology comparison on
// a small chip. The simulators are deterministic, so the resulting
// relationship — the self-correction model beating naive replay — is
// reproducible.
func ExampleSession_RunStudyContext() {
	cfg := onocsim.DefaultConfig()
	cfg.System.Cores = 16
	cfg.Workload.Kernel = "stencil"
	cfg.Workload.Scale = 4
	cfg.Workload.Iterations = 2

	s := onocsim.NewSession("")
	study, err := s.RunStudyContext(context.Background(), cfg, onocsim.Optical)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("self-correction beats naive replay: %v\n",
		study.SCTMAcc.MakespanErr < study.NaiveAcc.MakespanErr)
	fmt.Printf("converged: %v\n", study.SCTM.Converged)
	// Output:
	// self-correction beats naive replay: true
	// converged: true
}

// ExampleSession_CaptureTraceContext captures a trace once and replays it
// with self-correction; asking the session for the same capture again is a
// cache hit that returns the same trace.
func ExampleSession_CaptureTraceContext() {
	cfg := onocsim.DefaultConfig()
	cfg.System.Cores = 16
	cfg.Workload.Kernel = "lu"
	cfg.Workload.Scale = 4

	ctx := context.Background()
	s := onocsim.NewSession("")
	tr, _, err := s.CaptureTraceContext(ctx, cfg, onocsim.IdealNet)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("captured a valid trace: %v\n", tr.Validate() == nil && tr.NumEvents() > 0)
	res, err := s.RunSelfCorrectionContext(ctx, cfg, tr, onocsim.Optical)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	fmt.Printf("converged: %v\n", res.Converged)
	again, _, _ := s.CaptureTraceContext(ctx, cfg, onocsim.IdealNet)
	fmt.Printf("second capture is the first: %v\n", again == tr)
	// Output:
	// captured a valid trace: true
	// converged: true
	// second capture is the first: true
}
