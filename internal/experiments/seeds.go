package experiments

import (
	"context"
	"onocsim"
	"onocsim/internal/metrics"
	"onocsim/internal/workload"
)

// R16Seeds replicates the headline accuracy comparison across independent
// seeds and reports mean ± 95% CI — the statistical-rigor check single-seed
// tables (R1) cannot give. Seeds perturb the synthetic kernels' RNG-driven
// choices and, through them, every timing interleaving downstream.
func R16Seeds(ctx context.Context, o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"R16 (extension) — seed sensitivity of methodology accuracy (makespan error, mean ± 95% CI)",
		"kernel", "seeds", "naive err", "naive ±", "sctm err", "sctm ±")
	seeds := []uint64{11, 23, 42, 57, 89}
	kernels := workload.KernelNames()
	if o.Quick {
		seeds = seeds[:2]
		kernels = kernels[:2]
	}
	for _, k := range kernels {
		var naive, sctm []float64
		for _, seed := range seeds {
			opts := o
			opts.Seed = seed
			cfg := kernelConfig(opts, k)
			cfg.Workload.Jitter = 0.15 // seed-driven compute variation
			tr, _, err := o.Session.CaptureTraceContext(ctx, cfg, onocsim.IdealNet)
			if err != nil {
				return nil, err
			}
			truth, err := o.Session.RunExecutionDrivenContext(ctx, cfg, onocsim.Optical)
			if err != nil {
				return nil, err
			}
			nv, err := o.Session.RunNaiveReplayContext(ctx, cfg, tr, onocsim.Optical)
			if err != nil {
				return nil, err
			}
			sc, err := o.Session.RunSelfCorrectionContext(ctx, cfg, tr, onocsim.Optical)
			if err != nil {
				return nil, err
			}
			naive = append(naive, metrics.RelErr(float64(nv.Makespan), float64(truth.Makespan)))
			sctm = append(sctm, metrics.RelErr(float64(sc.Final.Makespan), float64(truth.Makespan)))
		}
		naiveMean, naiveCI := metrics.MeanCI95(naive)
		sctmMean, sctmCI := metrics.MeanCI95(sctm)
		t.AddCells(
			metrics.String(k),
			metrics.Int(int64(len(seeds)), "seeds"),
			metrics.Percent(naiveMean), metrics.Percent(naiveCI),
			metrics.Percent(sctmMean), metrics.Percent(sctmCI),
		)
	}
	t.Note("the correction's advantage must be robust to the seed, not an artifact of one interleaving")
	return t, nil
}
