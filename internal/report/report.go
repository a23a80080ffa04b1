// Package report builds the typed result tables shared by the onocsim CLI
// and the onocsimd service: one table per operation, rendered as ASCII for
// terminals or versioned JSON for machine consumers. Both front ends call
// these builders so their outputs stay byte-identical — the daemon's JSON for
// an exec run is exactly what `onocsim -mode exec -format json` prints, bar
// the one host-time row the exec, correct and estimate tables carry: the wall
// time their caller passes in.
package report

import (
	"fmt"
	"time"

	"onocsim"
	"onocsim/internal/config"
	"onocsim/internal/metrics"
)

// Exec renders an execution-driven run. wall is the host time of the request
// that produced res, the one cell that is not a function of the run.
func Exec(cfg onocsim.Config, kind onocsim.NetworkKind, res onocsim.GroundTruth, wall time.Duration) *metrics.Table {
	t := metrics.NewTable(fmt.Sprintf("execution-driven run — %s, %s, %d cores",
		cfg.Workload.Kernel, kind, cfg.System.Cores), "metric", "value")
	t.AddCells(metrics.String("makespan (cycles)"), metrics.Int(int64(res.Makespan), "cycles"))
	t.AddCells(metrics.String("mean msg latency (cycles)"), metrics.Float(res.MeanLatency, 2, "cycles"))
	t.AddCells(metrics.String("network messages"), metrics.Int(int64(res.Messages), "messages"))
	t.AddCells(metrics.String("simulated cycles"), metrics.Int(int64(res.Cycles), "cycles"))
	t.AddCells(metrics.String("mean latency by class"), metrics.Stringf("req %.1f / resp %.1f / wb %.1f",
		res.ClassLatency[0], res.ClassLatency[1], res.ClassLatency[2]))
	t.AddCells(metrics.String("host wall time"), metrics.DurationText(wall))
	t.AddCells(metrics.String("network power (mW)"), metrics.Stringf("%.1f static + %.2f dynamic",
		res.Power.StaticMW, res.Power.DynamicMW))
	if cfg.Faults.Enabled() {
		t.AddCells(metrics.String("fault events"), metrics.Stringf("%d token losses / %d drifted / %d derated / %d rerouted",
			res.Faults.TokenLosses, res.Faults.DriftedSends, res.Faults.DeratedSends, res.Faults.Rerouted))
	}
	return t
}

// Study renders the full methodology comparison.
func Study(cfg onocsim.Config, kind onocsim.NetworkKind, study *onocsim.Study) *metrics.Table {
	t := metrics.NewTable(fmt.Sprintf("methodology study — %s on %s, %d cores",
		study.Workload, kind, cfg.System.Cores),
		"method", "makespan", "err vs truth", "mean lat")
	t.AddCells(metrics.String("execution-driven (truth)"), metrics.Int(int64(study.Truth.Makespan), "cycles"),
		metrics.String("—"), metrics.Float(study.Truth.MeanLatency, 1, "cycles"))
	t.AddCells(metrics.String("naive trace replay"), metrics.Int(int64(study.Naive.Makespan), "cycles"),
		metrics.Percent(study.NaiveAcc.MakespanErr), metrics.Float(study.Naive.MeanLatency, 1, "cycles"))
	t.AddCells(metrics.String("self-correction trace model"), metrics.Int(int64(study.SCTM.Final.Makespan), "cycles"),
		metrics.Percent(study.SCTMAcc.MakespanErr), metrics.Float(study.SCTM.Final.MeanLatency, 1, "cycles"))
	t.AddCells(metrics.String("coupled replay (reference)"), metrics.Int(int64(study.Coupled.Makespan), "cycles"),
		metrics.Percent(study.CoupAcc.MakespanErr), metrics.Float(study.Coupled.MeanLatency, 1, "cycles"))
	t.Note("trace: %d events captured on the %s fabric",
		study.Trace.NumEvents(), config.NetIdeal)
	t.Note("self-correction: %d rounds, converged=%v, %d events replayed (%d cycles skipped by checkpoints)",
		len(study.SCTM.Iterations), study.SCTM.Converged, study.SCTM.ReplayedEvents, study.SCTM.SavedCycles)
	return t
}

// Correction renders one self-correction run: the converged (or parked)
// replay plus the convergence trajectory summary. parked marks a run whose
// loop stopped at a round boundary before converging.
func Correction(cfg onocsim.Config, kind onocsim.NetworkKind, res onocsim.CorrectionResult, wall time.Duration, parked bool) *metrics.Table {
	t := metrics.NewTable(fmt.Sprintf("self-correction trace model — %s on %s, %d cores",
		cfg.Workload.Kernel, kind, cfg.System.Cores), "metric", "value")
	t.AddCells(metrics.String("makespan (cycles)"), metrics.Int(int64(res.Final.Makespan), "cycles"))
	t.AddCells(metrics.String("mean msg latency (cycles)"), metrics.Float(res.Final.MeanLatency, 2, "cycles"))
	t.AddCells(metrics.String("rounds"), metrics.Int(int64(len(res.Iterations)), "rounds"))
	t.AddCells(metrics.String("converged"), metrics.Stringf("%v", res.Converged))
	t.AddCells(metrics.String("events replayed"), metrics.Int(int64(res.ReplayedEvents), "events"))
	t.AddCells(metrics.String("simulation cost (cycles)"), metrics.Int(int64(res.TotalCycles), "cycles"))
	if res.SavedCycles > 0 {
		t.AddCells(metrics.String("cycles skipped by checkpoints"), metrics.Int(int64(res.SavedCycles), "cycles"))
	}
	t.AddCells(metrics.String("host wall time"), metrics.DurationText(wall))
	if parked {
		t.Note("parked before convergence: the trajectory above is a valid prefix of the full run")
	}
	return t
}

// Estimate renders the closed-form contention-aware estimate.
func Estimate(cfg onocsim.Config, kind onocsim.NetworkKind, res onocsim.AnalyticEstimate, wall time.Duration) *metrics.Table {
	t := metrics.NewTable(fmt.Sprintf("analytic estimate — %s on %s, %d cores",
		cfg.Workload.Kernel, kind, cfg.System.Cores), "metric", "value")
	t.AddCells(metrics.String("estimated makespan (cycles)"), metrics.Int(int64(res.Makespan), "cycles"))
	t.AddCells(metrics.String("zero-load makespan (cycles)"), metrics.Int(int64(res.ZeroLoadMakespan), "cycles"))
	t.AddCells(metrics.String("estimated mean latency (cycles)"), metrics.Float(res.MeanLatency, 2, "cycles"))
	t.AddCells(metrics.String("events priced"), metrics.Int(int64(len(res.Latency)), "events"))
	t.AddCells(metrics.String("host wall time"), metrics.DurationText(wall))
	return t
}
