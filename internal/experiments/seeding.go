package experiments

import (
	"context"
	"onocsim"
	"onocsim/internal/metrics"
	"onocsim/internal/workload"
)

// R19Seeding evaluates the correction loop's two round-0 seeds and the
// analytic model's screening error. Per kernel and contended fabric it
// compares zero-load seeding, the paper's method, with coupled seeding:
// replay rounds, replayed events, and the replay saved, 1 − replayed(coupled)
// / replayed(zero-load), which pays for the coupled pass; and the relative
// drift between the two converged makespans (0.0% when the arms stop at the
// same fixpoint; under the makespan tolerance zero-load may stop early at a
// near-fixpoint). As a screening model it reports the closed-form estimate
// against the simulated result: makespan and mean-latency error bands. The
// zero-load arm runs with the baseline's empty seed mode, so on a warm
// session it shares its self-correction results with the other experiments.
func R19Seeding(ctx context.Context, o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"R19 (extension) — round-0 seeding, zero-load vs coupled, and the analytic model's screening error",
		"kernel", "fabric", "rounds (zero-load)", "rounds (coupled)", "replay saved",
		"makespan est", "makespan sim", "makespan err", "mean-latency err", "final drift",
		"replayed (zero-load)", "replayed (coupled)")
	fabrics := []onocsim.NetworkKind{onocsim.Optical, onocsim.Electrical, onocsim.Hybrid}
	for _, k := range workload.KernelNames() {
		cfg := kernelConfig(o, k)
		tr, _, err := o.Session.CaptureTraceContext(ctx, cfg, onocsim.IdealNet)
		if err != nil {
			return nil, err
		}
		for _, kind := range fabrics {
			zl, err := o.Session.RunSelfCorrectionContext(ctx, cfg, tr, kind)
			if err != nil {
				return nil, err
			}
			ccfg := cfg
			ccfg.SCTM.Seed = "coupled"
			co, err := o.Session.RunSelfCorrectionContext(ctx, ccfg, tr, kind)
			if err != nil {
				return nil, err
			}
			est, err := o.Session.Estimate(cfg, tr, kind)
			if err != nil {
				return nil, err
			}
			var saved float64
			if rz := zl.ReplayedEvents; rz > 0 {
				saved = 1 - float64(co.ReplayedEvents)/float64(rz)
			}
			t.AddCells(
				metrics.String(k), metrics.String(string(kind)),
				metrics.Int(int64(len(zl.Iterations)), "rounds"),
				metrics.Int(int64(len(co.Iterations)), "rounds"),
				metrics.Percent(saved),
				cycles(est.Makespan), cycles(zl.Final.Makespan),
				metrics.Percent(metrics.RelErr(float64(est.Makespan), float64(zl.Final.Makespan))),
				metrics.Percent(metrics.RelErr(est.MeanLatency, zl.Final.MeanLatency)),
				metrics.Percent(metrics.RelErr(float64(co.Final.Makespan), float64(zl.Final.Makespan))),
				metrics.Int(int64(zl.ReplayedEvents), "events"),
				metrics.Int(int64(co.ReplayedEvents), "events"),
			)
		}
	}
	return t, nil
}
