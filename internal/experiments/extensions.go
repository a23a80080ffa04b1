package experiments

import (
	"context"
	"fmt"

	"onocsim"
	"onocsim/internal/metrics"
	"onocsim/internal/workload"
)

// The experiments in this file go beyond the reconstructed paper evaluation:
// they exercise the design-space and robustness questions the paper's
// methodology enables but (as far as the abstract shows) did not report.
// DESIGN.md lists them as extensions.

// R9Architectures compares the two optical crossbar organizations — the
// token-arbitrated MWSR (Corona-class) and the broadcast SWMR
// (Firefly-class) — on application completion time and power, the classic
// arbitration-latency-versus-static-power trade-off.
func R9Architectures(ctx context.Context, o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"R9 (extension) — MWSR vs SWMR optical crossbar",
		"kernel", "mwsr makespan", "swmr makespan", "swmr speedup",
		"mwsr power (mW)", "swmr power (mW)")
	for _, k := range workload.KernelNames() {
		cfg := kernelConfig(o, k)
		cfg.Optical.Architecture = "mwsr"
		mwsr, err := o.Session.RunExecutionDrivenContext(ctx, cfg, onocsim.Optical)
		if err != nil {
			return nil, err
		}
		cfg.Optical.Architecture = "swmr"
		swmr, err := o.Session.RunExecutionDrivenContext(ctx, cfg, onocsim.Optical)
		if err != nil {
			return nil, err
		}
		t.AddCells(
			metrics.String(k),
			cycles(mwsr.Makespan),
			cycles(swmr.Makespan),
			metrics.Ratio(float64(mwsr.Makespan)/float64(swmr.Makespan), 2),
			metrics.Float(mwsr.Power.TotalMW(), 0, "mW"),
			metrics.Float(swmr.Power.TotalMW(), 0, "mW"),
		)
	}
	t.Note("SWMR removes token-arbitration latency but pays a quadratic receiver-ring tuning budget")
	return t, nil
}

// R10CaptureFabric measures how sensitive the Self-Correction Trace Model is
// to the fabric the trace was captured on: the method's promise is that a
// cheap reference capture suffices.
func R10CaptureFabric(ctx context.Context, o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"R10 (extension) — SCTM accuracy vs capture fabric (target: optical)",
		"kernel", "capture=ideal", "capture=electrical", "capture=optical", "naive (ideal capture)")
	kernels := workload.KernelNames()
	if o.Quick {
		kernels = kernels[:2]
	}
	for _, k := range kernels {
		cfg := kernelConfig(o, k)
		truth, err := o.Session.RunExecutionDrivenContext(ctx, cfg, onocsim.Optical)
		if err != nil {
			return nil, err
		}
		row := []metrics.Cell{metrics.String(k)}
		var naiveIdeal float64
		for i, capOn := range []onocsim.NetworkKind{onocsim.IdealNet, onocsim.Electrical, onocsim.Optical} {
			tr, _, err := o.Session.CaptureTraceContext(ctx, cfg, capOn)
			if err != nil {
				return nil, err
			}
			res, err := o.Session.RunSelfCorrectionContext(ctx, cfg, tr, onocsim.Optical)
			if err != nil {
				return nil, err
			}
			row = append(row, metrics.Percent(metrics.RelErr(float64(res.Final.Makespan), float64(truth.Makespan))))
			if i == 0 {
				nv, err := o.Session.RunNaiveReplayContext(ctx, cfg, tr, onocsim.Optical)
				if err != nil {
					return nil, err
				}
				naiveIdeal = metrics.RelErr(float64(nv.Makespan), float64(truth.Makespan))
			}
		}
		row = append(row, metrics.Percent(naiveIdeal))
		t.AddCells(row...)
	}
	t.Note("capture=optical is self-capture: its latencies are the loop's exact fixpoint and equal truth, so its error is the early exit's")
	return t, nil
}

// R12Hybrid evaluates the path-adaptive opto-electronic fabric (the
// direction the paper's authors took next, ISPA 2013): kernel completion
// time versus the distance threshold that splits traffic between the
// electrical mesh and the optical crossbar.
func R12Hybrid(ctx context.Context, o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"R12 (extension) — path-adaptive hybrid NoC: makespan vs optical-distance threshold",
		"kernel", "mesh only", "optical only", "hybrid t=2", "hybrid t=4", "hybrid t=6", "best")
	kernels := workload.KernelNames()
	if o.Quick {
		kernels = kernels[:2]
	}
	for _, k := range kernels {
		cfg := kernelConfig(o, k)
		mesh, err := o.Session.RunExecutionDrivenContext(ctx, cfg, onocsim.Electrical)
		if err != nil {
			return nil, err
		}
		opt, err := o.Session.RunExecutionDrivenContext(ctx, cfg, onocsim.Optical)
		if err != nil {
			return nil, err
		}
		best := "mesh"
		bestMk := mesh.Makespan
		if opt.Makespan < bestMk {
			best, bestMk = "optical", opt.Makespan
		}
		row := []metrics.Cell{metrics.String(k), cycles(mesh.Makespan), cycles(opt.Makespan)}
		for _, th := range []int{2, 4, 6} {
			c := cfg
			c.Hybrid.Threshold = th
			h, err := o.Session.RunExecutionDrivenContext(ctx, c, onocsim.Hybrid)
			if err != nil {
				return nil, err
			}
			row = append(row, cycles(h.Makespan))
			if h.Makespan < bestMk {
				best, bestMk = fmt.Sprintf("hybrid t=%d", th), h.Makespan
			}
		}
		row = append(row, metrics.String(best))
		t.AddCells(row...)
	}
	t.Note("hybrid routes hops < threshold over the mesh and the rest over the crossbar")
	return t, nil
}
