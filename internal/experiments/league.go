package experiments

import (
	"context"
	"fmt"

	"onocsim"
	"onocsim/internal/metrics"
	"onocsim/internal/workload"
)

// fabricDesign names one interconnect configuration for the league table.
type fabricDesign struct {
	name   string
	kind   onocsim.NetworkKind
	mutate func(*onocsim.Config)
}

// leagueDesigns is every fabric this repository implements, in report order.
func leagueDesigns() []fabricDesign {
	return []fabricDesign{
		{"mesh-xy", onocsim.Electrical, nil},
		{"mesh-wf", onocsim.Electrical, func(c *onocsim.Config) { c.Mesh.Routing = "westfirst" }},
		{"torus", onocsim.Electrical, func(c *onocsim.Config) { c.Mesh.Topology = "torus"; c.Mesh.VCs = 6 }},
		{"mwsr", onocsim.Optical, nil},
		{"swmr", onocsim.Optical, func(c *onocsim.Config) { c.Optical.Architecture = "swmr" }},
		{"hybrid-4", onocsim.Hybrid, func(c *onocsim.Config) { c.Hybrid.Threshold = 4 }},
	}
}

// R15League runs every kernel on every fabric and reports the completion
// time league table — the consolidated design-space view that the
// per-pair experiments (R5, R9, R12) sample.
func R15League(ctx context.Context, o Options) (*metrics.Table, error) {
	designs := leagueDesigns()
	cols := []string{"kernel"}
	for _, d := range designs {
		cols = append(cols, d.name)
	}
	cols = append(cols, "winner")
	t := metrics.NewTable("R15 (extension) — fabric league table (makespan, cycles)", cols...)
	kernels := workload.KernelNames()
	if o.Quick {
		kernels = kernels[:2]
	}
	for _, k := range kernels {
		row := []metrics.Cell{metrics.String(k)}
		winner, best := "", int64(1)<<62
		for _, d := range designs {
			cfg := kernelConfig(o, k)
			if d.mutate != nil {
				d.mutate(&cfg)
			}
			res, err := o.Session.RunExecutionDrivenContext(ctx, cfg, d.kind)
			if err != nil {
				return nil, fmt.Errorf("experiments: league %s/%s: %w", k, d.name, err)
			}
			row = append(row, cycles(res.Makespan))
			if int64(res.Makespan) < best {
				best, winner = int64(res.Makespan), d.name
			}
		}
		row = append(row, metrics.String(winner))
		t.AddCells(row...)
	}
	t.Note("execution-driven, identical programs and seeds on every fabric")
	return t, nil
}
