package experiments

import (
	"context"
	"onocsim"
	"onocsim/internal/config"
	"onocsim/internal/metrics"
)

// R18Faults measures graceful degradation under deterministic optical fault
// injection: for each fault preset and fabric it reports the execution-driven
// truth makespan, the slowdown versus the fault-free run on the same fabric,
// the accuracy of naive replay and the self-correction model under the same
// fault schedule, and the per-class fault counters. The ideal-fabric capture
// is shared across every row (faults never touch the capture fabric), so the
// sweep adds no capture work on a warm session.
func R18Faults(ctx context.Context, o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"R18 (extension) — fault injection: degraded throughput and self-correction accuracy (stencil kernel)",
		"faults", "fabric", "truth makespan", "slowdown", "naive err", "sctm err",
		"token losses", "drifted", "derated", "rerouted")
	base := kernelConfig(o, "stencil")
	tr, _, err := o.Session.CaptureTraceContext(ctx, base, onocsim.IdealNet)
	if err != nil {
		return nil, err
	}
	fabrics := []struct {
		name string
		kind onocsim.NetworkKind
	}{
		{"optical", onocsim.Optical},
		{"hybrid", onocsim.Hybrid},
	}
	// Fault-free makespan per fabric, denominator for the slowdown column.
	baseline := map[string]float64{}
	for _, preset := range []string{"off", "light", "heavy"} {
		f, err := config.FaultPreset(preset)
		if err != nil {
			return nil, err
		}
		for _, fb := range fabrics {
			cfg := base
			cfg.Faults = f
			truth, err := o.Session.RunExecutionDrivenContext(ctx, cfg, fb.kind)
			if err != nil {
				return nil, err
			}
			nv, err := o.Session.RunNaiveReplayContext(ctx, cfg, tr, fb.kind)
			if err != nil {
				return nil, err
			}
			sc, err := o.Session.RunSelfCorrectionContext(ctx, cfg, tr, fb.kind)
			if err != nil {
				return nil, err
			}
			slow := metrics.Ratio(1, 2)
			if preset == "off" {
				baseline[fb.name] = float64(truth.Makespan)
			} else if b := baseline[fb.name]; b > 0 {
				slow = metrics.Ratio(float64(truth.Makespan)/b, 2)
			}
			fc := truth.Faults
			t.AddCells(
				metrics.String(preset), metrics.String(fb.name),
				cycles(truth.Makespan), slow,
				metrics.Percent(metrics.RelErr(float64(nv.Makespan), float64(truth.Makespan))),
				metrics.Percent(metrics.RelErr(float64(sc.Final.Makespan), float64(truth.Makespan))),
				metrics.Int(int64(fc.TokenLosses), "events"),
				metrics.Int(int64(fc.DriftedSends), "events"),
				metrics.Int(int64(fc.DeratedSends), "events"),
				metrics.Int(int64(fc.Rerouted), "events"))
		}
	}
	t.Note("fault schedules are seeded: the same (seed, faults) pair replays the same outages on any shard count")
	t.Note("hybrid reroutes droop-blacklisted lightpaths over the electrical mesh (the rerouted column)")
	return t, nil
}
