package onocsim

import (
	"reflect"
	"testing"

	"onocsim/internal/core"
	"onocsim/internal/workload"
)

// TestSelfCaptureFixpointIsTruth is the correction loop validated against
// itself: a trace captured on its own target carries latencies that are
// already the loop's fixpoint, and that fixpoint is the execution-driven
// truth. For every kernel on both contended fabrics:
//
//  1. naive replay of the self-captured trace reproduces the truth's makespan;
//  2. the loop seeded with the trace's own latencies (RefArrive − RefInject)
//     stops after one round with Delta 0 and the truth's makespan;
//  3. the zero-load-seeded loop, makespan tolerance off, walks to that same Final,
//     DeepEqual, within its round budget (14 to 304 rounds here).
func TestSelfCaptureFixpointIsTruth(t *testing.T) {
	for _, kernel := range workload.KernelNames() {
		for _, kind := range []NetworkKind{Optical, Electrical} {
			t.Run(kernel+"/"+string(kind), func(t *testing.T) {
				cfg := smallConfig()
				cfg.Workload.Kernel = kernel
				cfg.SCTM.MakespanTolerance = 0
				cfg.SCTM.MaxIterations = 400
				truth, err := uncached.RunExecutionDrivenContext(bg, cfg, kind)
				if err != nil {
					t.Fatal(err)
				}
				tr, _, err := uncached.CaptureTraceContext(bg, cfg, kind)
				if err != nil {
					t.Fatal(err)
				}
				naive, err := uncached.RunNaiveReplayContext(bg, cfg, tr, kind)
				if err != nil {
					t.Fatal(err)
				}
				if naive.Makespan != truth.Makespan {
					t.Fatalf("naive replay makespan %d, truth %d", naive.Makespan, truth.Makespan)
				}

				factory, err := NetworkFactory(cfg, kind)
				if err != nil {
					t.Fatal(err)
				}
				seed := make([]Tick, len(tr.Events))
				for i, e := range tr.Events {
					seed[i] = e.RefArrive - e.RefInject
				}
				own, _, err := core.Correct(bg, factory, tr, cfg.SCTM, 1, 0, seed, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !own.Converged || len(own.Iterations) != 1 || own.Iterations[0].Delta != 0 {
					t.Fatalf("own-latency seed is not a round-0 fixpoint: %+v", own.Iterations)
				}
				if own.Final.Makespan != truth.Makespan {
					t.Fatalf("own-latency fixpoint makespan %d, truth %d", own.Final.Makespan, truth.Makespan)
				}

				zl, err := uncached.RunSelfCorrectionContext(bg, cfg, tr, kind)
				if err != nil {
					t.Fatal(err)
				}
				if !zl.Converged {
					t.Fatalf("zero-load loop did not converge in %d rounds", len(zl.Iterations))
				}
				if !reflect.DeepEqual(zl.Final, own.Final) {
					t.Fatalf("zero-load fixpoint after %d rounds differs from the self-captured one:\n got %+v\nwant %+v",
						len(zl.Iterations), zl.Final, own.Final)
				}
				t.Logf("%d rounds", len(zl.Iterations))
			})
		}
	}
}
