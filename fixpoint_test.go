package onocsim

import (
	"reflect"
	"testing"

	"onocsim/internal/core"
	"onocsim/internal/workload"
)

// fixpointVariants are the five fabric variants the fixpoint tests cover: the
// optical crossbar with each arbitration ("optical" is MWSR, the default), the
// mesh, the ideal fabric and the hybrid.
var fixpointVariants = []struct {
	name string
	kind NetworkKind
	swmr bool
}{
	{"optical", Optical, false},
	{"swmr", Optical, true},
	{"electrical", Electrical, false},
	{"ideal", IdealNet, false},
	{"hybrid", Hybrid, false},
}

// TestSelfCaptureFixpointIsTruth is the correction loop validated against
// itself: a trace captured on its own target carries latencies that are
// already the loop's fixpoint, and that fixpoint is the execution-driven
// truth. For every kernel on every fixpoint variant:
//
//  1. naive replay of the self-captured trace reproduces the truth's makespan;
//  2. so does coupled replay, which resolves the dependencies on the fabric;
//  3. the loop seeded with the trace's own latencies (RefArrive − RefInject)
//     stops after one round with Delta 0 and the truth's makespan;
//  4. on the MWSR crossbar and the mesh, the zero-load-seeded loop, makespan
//     tolerance off, walks to that same Final, DeepEqual, within its round
//     budget (14 to 304 rounds here).
func TestSelfCaptureFixpointIsTruth(t *testing.T) {
	for _, kernel := range workload.KernelNames() {
		for _, v := range fixpointVariants {
			kind := v.kind
			t.Run(kernel+"/"+v.name, func(t *testing.T) {
				cfg := smallConfig()
				cfg.Workload.Kernel = kernel
				if v.swmr {
					cfg.Optical.Architecture = "swmr"
				}
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
				coupled, err := uncached.RunCoupledReplayContext(bg, cfg, tr, kind)
				if err != nil {
					t.Fatal(err)
				}
				if coupled.Makespan != truth.Makespan {
					t.Fatalf("coupled replay makespan %d, truth %d", coupled.Makespan, truth.Makespan)
				}

				factory, err := NetworkFactory(cfg, kind)
				if err != nil {
					t.Fatal(err)
				}
				seed := make([]Tick, len(tr.Events))
				for i, e := range tr.Events {
					seed[i] = e.RefArrive - e.RefInject
				}
				own, _, err := core.Correct(bg, factory, tr, cfg.SCTM, 0, seed, nil, nil, nil)
				if err != nil {
					t.Fatal(err)
				}
				if !own.Converged || len(own.Iterations) != 1 || own.Iterations[0].Delta != 0 {
					t.Fatalf("own-latency seed is not a round-0 fixpoint: %+v", own.Iterations)
				}
				if own.Final.Makespan != truth.Makespan {
					t.Fatalf("own-latency fixpoint makespan %d, truth %d", own.Final.Makespan, truth.Makespan)
				}
				if v.name != "optical" && v.name != "electrical" {
					return
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

// TestCoupledIsTheFixpoint holds coupled replay to the correction loop's own
// fixpoint through the product path: seeded "coupled", the loop stops in
// round 0 with Delta 0 and a Final DeepEqual to the coupled result, the
// coupled pass charged (TotalCycles is its cycles plus round 0's, and
// ReplayedEvents twice the trace's events). Coupled replay injects each
// cycle's ready events in event-index order, the order of every scheduled
// replay; any other order moves a same-cycle tie and the seed is no fixpoint.
// Every kernel on every fabric family (the crossbar both MWSR and SWMR), from
// an ideal-fabric capture and from a capture on the target itself; from the
// ideal capture also under light and heavy faults and with either dependency
// class off.
func TestCoupledIsTheFixpoint(t *testing.T) {
	variants := []struct {
		name   string
		mutate func(*Config)
	}{
		{"", func(*Config) {}},
		{"/faults-light", func(c *Config) { c.Faults = faultedConfig(t, "light").Faults }},
		{"/faults-heavy", func(c *Config) { c.Faults = faultedConfig(t, "heavy").Faults }},
		{"/no-sync-deps", func(c *Config) { c.SCTM.DisableSyncDeps = true }},
		{"/no-causal-deps", func(c *Config) { c.SCTM.DisableCausalDeps = true }},
	}
	for _, kernel := range workload.KernelNames() {
		for _, v := range fixpointVariants {
			for _, capture := range []string{"ideal", "self"} {
				for _, x := range variants {
					if capture == "self" && x.name != "" {
						continue
					}
					t.Run(kernel+"/"+v.name+"/"+capture+x.name, func(t *testing.T) {
						cfg := smallConfig()
						cfg.Workload.Kernel = kernel
						if v.swmr {
							cfg.Optical.Architecture = "swmr"
						}
						x.mutate(&cfg)
						on := IdealNet
						if capture == "self" {
							on = v.kind
						}
						tr, _, err := uncached.CaptureTraceContext(bg, cfg, on)
						if err != nil {
							t.Fatal(err)
						}
						coupled, err := uncached.RunCoupledReplayContext(bg, cfg, tr, v.kind)
						if err != nil {
							t.Fatal(err)
						}
						cfg.SCTM.Seed = "coupled"
						res, err := uncached.RunSelfCorrectionContext(bg, cfg, tr, v.kind)
						if err != nil {
							t.Fatal(err)
						}
						if !res.Converged || len(res.Iterations) != 1 || res.Iterations[0].Delta != 0 {
							t.Fatalf("the coupled seed is not a round-0 fixpoint: %+v", res.Iterations)
						}
						if !reflect.DeepEqual(res.Final, coupled) {
							t.Fatalf("the fixpoint differs from the coupled replay:\n got %+v\nwant %+v", res.Final, coupled)
						}
						if want := coupled.Cycles + res.Iterations[0].Cycles; res.TotalCycles != want {
							t.Fatalf("TotalCycles %d, want the coupled pass plus round 0, %d", res.TotalCycles, want)
						}
						if want := 2 * len(tr.Events); res.ReplayedEvents != want {
							t.Fatalf("ReplayedEvents %d, want the coupled pass plus round 0, %d", res.ReplayedEvents, want)
						}
					})
				}
			}
		}
	}
}

// TestLoopAttractsWithoutCausalEdges pins where the zero-load loop does reach
// its fixpoint: with causal edges off, on the MWSR crossbar and the ideal
// fabric, every kernel's loop, makespan tolerance off, walks from an
// ideal-fabric capture to a Final DeepEqual to the coupled replay of the same
// ablation, its exact fixpoint, within 40 rounds. With every edge kept it
// misses on some (ROADMAP item 4).
func TestLoopAttractsWithoutCausalEdges(t *testing.T) {
	for _, kernel := range workload.KernelNames() {
		for _, kind := range []NetworkKind{Optical, IdealNet} {
			t.Run(kernel+"/"+string(kind), func(t *testing.T) {
				cfg := smallConfig()
				cfg.Workload.Kernel = kernel
				cfg.SCTM.DisableCausalDeps = true
				cfg.SCTM.MakespanTolerance = 0
				cfg.SCTM.MaxIterations = 40
				tr, _, err := uncached.CaptureTraceContext(bg, cfg, IdealNet)
				if err != nil {
					t.Fatal(err)
				}
				coupled, err := uncached.RunCoupledReplayContext(bg, cfg, tr, kind)
				if err != nil {
					t.Fatal(err)
				}
				res, err := uncached.RunSelfCorrectionContext(bg, cfg, tr, kind)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged || !reflect.DeepEqual(res.Final, coupled) {
					t.Fatalf("after %d rounds (converged %v) the loop is not at the coupled replay's fixpoint", len(res.Iterations), res.Converged)
				}
				t.Logf("%d rounds", len(res.Iterations))
			})
		}
	}
}
