package experiments

import (
	"context"
	"onocsim"
	"onocsim/internal/metrics"
	"onocsim/internal/workload"
)

// R19Seeding evaluates the analytical fast path on both of its jobs. As a
// warm start it compares the self-correction loop under zero-load and
// analytic round-0 seeding per kernel and contended fabric: replay rounds,
// the round reduction, replayed events, and the relative drift between the two
// converged makespans (0.0% when the arms stop at the same fixpoint; with
// loose tolerances a warm start may legitimately stop a round earlier at a
// near-fixpoint within tolerance of the other). As a screening model it
// reports the closed-form estimate against the simulated result: makespan
// and mean-latency error bands. The zero-load arm runs with the baseline's
// empty seed mode, so on a warm session it shares its self-correction results
// with the other experiments.
func R19Seeding(ctx context.Context, o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"R19 (extension) — analytical fast path: seeding savings and screening error",
		"kernel", "fabric", "rounds (zero-load)", "rounds (analytic)", "rounds saved",
		"makespan est", "makespan sim", "makespan err", "mean-latency err", "final drift",
		"replayed (zero-load)", "replayed (analytic)")
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
			acfg := cfg
			acfg.SCTM.Seed = "analytic"
			an, err := o.Session.RunSelfCorrectionContext(ctx, acfg, tr, kind)
			if err != nil {
				return nil, err
			}
			est, err := o.Session.Estimate(cfg, tr, kind)
			if err != nil {
				return nil, err
			}
			var saved float64
			if rz := len(zl.Iterations); rz > 0 {
				saved = float64(rz-len(an.Iterations)) / float64(rz)
			}
			t.AddCells(
				metrics.String(k), metrics.String(string(kind)),
				metrics.Int(int64(len(zl.Iterations)), "rounds"),
				metrics.Int(int64(len(an.Iterations)), "rounds"),
				metrics.Percent(saved),
				cycles(est.Makespan), cycles(zl.Final.Makespan),
				metrics.Percent(metrics.RelErr(float64(est.Makespan), float64(zl.Final.Makespan))),
				metrics.Percent(metrics.RelErr(est.MeanLatency, zl.Final.MeanLatency)),
				metrics.Percent(metrics.RelErr(float64(an.Final.Makespan), float64(zl.Final.Makespan))),
				metrics.Int(int64(zl.ReplayedEvents), "events"),
				metrics.Int(int64(an.ReplayedEvents), "events"),
			)
		}
	}
	return t, nil
}
