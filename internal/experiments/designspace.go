package experiments

import (
	"context"

	"onocsim/internal/config"
	"onocsim/internal/metrics"
	"onocsim/internal/sweep"
)

// R20DesignSpace runs the standard design-space sweep grid through the batch
// pipeline (internal/sweep): fabric kind x radix x WDM degree x fault preset
// x kernel, identity-collapsed, analytically prefiltered, survivors
// simulated, reduced to the latency/throughput/power Pareto front. The table
// is the front; the notes carry the grid accounting — how much of the design
// space the analytic model screened out before any fabric was ticked.
func R20DesignSpace(ctx context.Context, o Options) (*metrics.Table, error) {
	spec := config.DefaultSweep()
	spec.Normalize()
	spec.Seed = o.seed()
	spec.Quick = o.Quick
	res, err := sweep.Run(ctx, spec, sweep.Options{
		Session:  o.Session,
		Progress: o.Progress,
	})
	if err != nil {
		return nil, err
	}
	t := metrics.NewTable(
		"R20 (extension) — design-space sweep: Pareto front over latency, throughput and power",
		"arm", "latency", "throughput", "power")
	for _, p := range res.FrontPoints {
		t.AddCells(
			metrics.String(p.Label),
			metrics.Float(p.LatencyCycles, 2, "cyc"),
			metrics.Float(p.ThroughputBpc, 3, "B/cyc"),
			metrics.Float(p.PowerMW, 2, "mW"),
		)
	}
	t.Note("%d grid arms -> %d unique jobs; %d pruned by analytic prefilter (%.0f%%), %d simulated, %d on front",
		res.Arms, res.UniqueJobs, res.Pruned,
		100*float64(res.Pruned)/float64(res.UniqueJobs), res.Simulated, len(res.FrontPoints))
	t.Note("power is the design's static floor (laser/tuning for photonic fabrics, leakage for the mesh); throughput is delivered payload bytes per makespan cycle")
	return t, nil
}
