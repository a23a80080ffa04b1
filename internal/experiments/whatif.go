package experiments

import (
	"context"
	"onocsim"
	"onocsim/internal/metrics"
	"onocsim/internal/photonics"
	"onocsim/internal/trace"
)

// R13Photonics sweeps the dominant physical-layer parameters of the
// crossbar's loss budget and reports the resulting laser power — the
// loss-budget table every ONOC paper carries, here regenerated from the
// device model.
func R13Photonics(_ context.Context, o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"R13 (extension) — photonic loss-budget sensitivity (laser wall-plug power)",
		"nodes", "waveguide dB/cm", "ring-through dB", "worst loss dB", "laser W", "tuning W", "rings")
	nodes := []int{16, 64, 256}
	wgLoss := []float64{0.5, 1.0, 2.0}
	ringLoss := []float64{0.005, 0.01, 0.05}
	if o.Quick {
		nodes = []int{16, 64}
		wgLoss = []float64{1.0}
	}
	for _, n := range nodes {
		for _, wg := range wgLoss {
			for _, rl := range ringLoss {
				p := photonics.DefaultDeviceParams()
				p.WaveguideLossDBPerCm = wg
				p.RingThroughLossDB = rl
				b, err := photonics.ComputeBudget(p, photonics.CrossbarGeometry{
					Nodes:                 n,
					WavelengthsPerChannel: 16,
					DieEdgeCm:             2,
				})
				if err != nil {
					return nil, err
				}
				t.AddCells(
					metrics.Int(int64(n), "nodes"),
					metrics.DB(wg, 2),
					metrics.DB(rl, 3),
					metrics.DB(b.WorstLossDB, 1),
					metrics.Float(b.LaserPowerMW/1000, 2, "W"),
					metrics.Float(b.TuningPowerMW/1000, 2, "W"),
					metrics.Int(int64(b.TotalRings), "rings"),
				)
			}
		}
	}
	t.Note("ring-through loss scales with (nodes-2)×wavelengths on the worst path: the crossbar's scaling wall")
	return t, nil
}

// R14WhatIf validates the trace-transformation methodology: predict the
// makespan of a chip with scaled core speed from ONE trace captured at the
// baseline speed (scaling only core-compute gaps, then self-correcting on
// the target fabric), and compare against ground-truth re-simulation at the
// scaled speed. This is the capture-once-predict-many workflow the trace
// model exists to enable, quantified.
func R14WhatIf(ctx context.Context, o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"R14 (extension) — core-speed what-if from one trace (target: optical)",
		"kernel", "compute scale", "predicted makespan", "true makespan", "error")
	kernels := []string{"stencil", "lu"}
	scales := []float64{0.5, 2.0, 4.0}
	if o.Quick {
		kernels = kernels[:1]
		scales = []float64{2.0}
	}
	isCompute := func(e *trace.Event) bool { return e.Kind == trace.KindRequest }
	for _, k := range kernels {
		base := kernelConfig(o, k)
		tr, _, err := o.Session.CaptureTraceContext(ctx, base, onocsim.IdealNet)
		if err != nil {
			return nil, err
		}
		for _, s := range scales {
			scaled, err := tr.ScaleGapsWhere(s, isCompute)
			if err != nil {
				return nil, err
			}
			pred, err := o.Session.RunSelfCorrectionContext(ctx, base, scaled, onocsim.Optical)
			if err != nil {
				return nil, err
			}
			truthCfg := base
			truthCfg.Workload.ComputeScale = s
			truth, err := o.Session.RunExecutionDrivenContext(ctx, truthCfg, onocsim.Optical)
			if err != nil {
				return nil, err
			}
			t.AddCells(
				metrics.String(k),
				metrics.Ratio(s, 1),
				cycles(pred.Final.Makespan),
				cycles(truth.Makespan),
				metrics.Percent(metrics.RelErr(float64(pred.Final.Makespan), float64(truth.Makespan))),
			)
		}
	}
	t.Note("prediction uses the baseline trace only — the scaled chip is never re-captured")
	return t, nil
}
