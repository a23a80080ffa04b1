package onocsim

import (
	"reflect"
	"testing"

	"onocsim/internal/workload"
)

// TestSeedModesConvergeIdentically is the seeding-correctness contract: the
// round-0 seed is a warm start, never a different answer. Every seed mode
// must converge the self-correction loop to a DeepEqual-identical Final
// replay on every fabric kind.
func TestSeedModesConvergeIdentically(t *testing.T) {
	base := smallConfig()
	// Exact convergence: with the default makespan tolerance the loop may
	// stop early at a near-fixpoint that still carries seed residue.
	// Without it the loop stops only at an exact fixpoint of the replay
	// map, and every seed walks to the same one.
	base.SCTM.MakespanTolerance = 0
	// The contended fabrics need up to ~80 rounds to reach their exact
	// fixpoints on this workload.
	base.SCTM.MaxIterations = 200
	tr, _, err := uncached.CaptureTraceContext(bg, base, IdealNet)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []NetworkKind{IdealNet, Electrical, Optical, Hybrid} {
		kind := kind
		t.Run(string(kind), func(t *testing.T) {
			run := func(mutate func(*Config)) CorrectionResult {
				cfg := base
				if mutate != nil {
					mutate(&cfg)
				}
				res, err := uncached.RunSelfCorrectionContext(bg, cfg, tr, kind)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatal("loop did not converge")
				}
				return res
			}
			def := run(nil)
			analytic := run(func(c *Config) { c.SCTM.Seed = "analytic" })
			if !reflect.DeepEqual(def.Final, analytic.Final) {
				t.Fatalf("analytic seed changed the converged result:\n default %+v\n analytic %+v",
					def.Final, analytic.Final)
			}
		})
	}
}

// TestAnalyticSeedNeverSlower pins the fast path's reason to exist: on the
// R3 convergence workloads, analytic seeding must never need more replay
// rounds than zero-load seeding.
func TestAnalyticSeedNeverSlower(t *testing.T) {
	for _, kernel := range workload.KernelNames() {
		for _, kind := range []NetworkKind{Electrical, Optical} {
			t.Run(kernel+"/"+string(kind), func(t *testing.T) {
				cfg := smallConfig()
				cfg.Workload.Kernel = kernel
				tr, _, err := uncached.CaptureTraceContext(bg, cfg, IdealNet)
				if err != nil {
					t.Fatal(err)
				}
				zl, err := uncached.RunSelfCorrectionContext(bg, cfg, tr, kind)
				if err != nil {
					t.Fatal(err)
				}
				an := cfg
				an.SCTM.Seed = "analytic"
				seeded, err := uncached.RunSelfCorrectionContext(bg, an, tr, kind)
				if err != nil {
					t.Fatal(err)
				}
				if len(seeded.Iterations) > len(zl.Iterations) {
					t.Fatalf("analytic seeding took %d rounds, zero-load %d",
						len(seeded.Iterations), len(zl.Iterations))
				}
			})
		}
	}
}

// TestEstimateAgainstSimulation bounds the screening error: the closed form
// must land within a loose band of the simulated result it approximates.
func TestEstimateAgainstSimulation(t *testing.T) {
	cfg := smallConfig()
	tr, _, err := uncached.CaptureTraceContext(bg, cfg, IdealNet)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []NetworkKind{Electrical, Optical, Hybrid} {
		est, err := uncached.Estimate(cfg, tr, kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		sim, err := uncached.RunSelfCorrectionContext(bg, cfg, tr, kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		ratio := float64(est.Makespan) / float64(sim.Final.Makespan)
		if ratio < 0.5 || ratio > 2.0 {
			t.Fatalf("%s: estimated makespan %d vs simulated %d (ratio %.2f) outside the 2x screening band",
				kind, est.Makespan, sim.Final.Makespan, ratio)
		}
	}
}

// TestSessionEstimateCached exercises the OpEstimate cache path: the second
// call must be a hit with an identical result.
func TestSessionEstimateCached(t *testing.T) {
	s := NewSession("")
	cfg := smallConfig()
	tr, _, err := s.CaptureTraceContext(bg, cfg, IdealNet)
	if err != nil {
		t.Fatal(err)
	}
	a, err := s.Estimate(cfg, tr, Optical)
	if err != nil {
		t.Fatal(err)
	}
	before := s.CacheStats()
	b, err := s.Estimate(cfg, tr, Optical)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("cached estimate differs from computed one")
	}
	if after := s.CacheStats(); after.Hits <= before.Hits {
		t.Fatalf("second estimate missed the cache: %+v -> %+v", before, after)
	}
}
