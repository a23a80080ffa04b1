package experiments

import (
	"context"
	"onocsim"
	"onocsim/internal/metrics"
	"onocsim/internal/workload"
)

// R17Memory tests the founding hypothesis of ONOC proposals — photonics
// pays off on memory-bound traffic — end to end: each kernel runs in a
// cache-resident regime (folded memory latency, large L2) and in a
// memory-bound regime (4 corner memory controllers, small L2, so every L2
// miss crosses the chip as real traffic), on both fabrics. The metric is
// the optical:electrical makespan ratio in each regime.
func R17Memory(ctx context.Context, o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"R17 (extension) — memory-bound traffic and the optical advantage",
		"kernel", "regime", "electrical", "optical", "optical/electrical")
	kernels := workload.KernelNames()
	if o.Quick {
		kernels = kernels[:2]
	}
	for _, k := range kernels {
		for _, regime := range []string{"cache-resident", "memory-bound"} {
			cfg := kernelConfig(o, k)
			if regime == "memory-bound" {
				cfg.System.MemPorts = 4
				cfg.System.L2SetsPerBank = 4
				cfg.System.L2Ways = 1
			}
			elec, err := o.Session.RunExecutionDrivenContext(ctx, cfg, onocsim.Electrical)
			if err != nil {
				return nil, err
			}
			opt, err := o.Session.RunExecutionDrivenContext(ctx, cfg, onocsim.Optical)
			if err != nil {
				return nil, err
			}
			t.AddCells(
				metrics.String(k), metrics.String(regime),
				cycles(elec.Makespan),
				cycles(opt.Makespan),
				metrics.Float(float64(opt.Makespan)/float64(elec.Makespan), 2, ""),
			)
		}
	}
	t.Note("ratio < 1 means optical wins; the all-to-all kernels shift toward the crossbar under memory traffic,")
	t.Note("while neighbor-local kernels shift away: corner controllers hotspot a few MWSR home channels,")
	t.Note("which is exactly why Corona provisions dedicated memory channels")
	return t, nil
}
