// Quickstart: the smallest end-to-end use of the Self-Correction Trace
// Model. It captures a dependency-annotated trace of a 16-core stencil
// kernel on the cheap reference fabric, replays it on the optical crossbar
// with and without self-correction, and compares both against
// execution-driven ground truth.
//
// Run with:
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"onocsim"
)

func main() {
	cfg := onocsim.DefaultConfig()
	cfg.System.Cores = 16
	cfg.Workload.Kernel = "stencil"
	cfg.Workload.Scale = 4
	cfg.Workload.Iterations = 3

	// Operations are methods of a session, which memoizes their results; the
	// context bounds how long each may queue for a simulation slot.
	ctx := context.Background()
	s := onocsim.NewSession("")

	// 1. Capture once on the cheap reference fabric.
	tr, _, err := s.CaptureTraceContext(ctx, cfg, onocsim.IdealNet)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured trace: %d events, reference makespan %d cycles\n",
		tr.NumEvents(), tr.RefMakespan)

	// 2. Ground truth: execution-driven simulation of the optical fabric.
	truth, err := s.RunExecutionDrivenContext(ctx, cfg, onocsim.Optical)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("execution-driven ONOC makespan: %d cycles (truth)\n", truth.Makespan)

	// 3. Conventional trace-driven replay: fast but wrong.
	naive, err := s.RunNaiveReplayContext(ctx, cfg, tr, onocsim.Optical)
	if err != nil {
		log.Fatal(err)
	}
	na := onocsim.Compare(naive, truth)
	fmt.Printf("naive replay estimate:          %d cycles (%.1f%% error)\n",
		naive.Makespan, na.MakespanErr*100)

	// 4. The Self-Correction Trace Model.
	sctm, err := s.RunSelfCorrectionContext(ctx, cfg, tr, onocsim.Optical)
	if err != nil {
		log.Fatal(err)
	}
	sa := onocsim.Compare(sctm.Final, truth)
	fmt.Printf("self-corrected estimate:        %d cycles (%.1f%% error, %d rounds, converged=%v)\n",
		sctm.Final.Makespan, sa.MakespanErr*100, len(sctm.Iterations), sctm.Converged)
}
