// Designspace explores the interconnect design space the methodology makes
// cheap: one kernel, every fabric this repository implements — electrical
// mesh (two routing modes), MWSR and SWMR optical crossbars, and the
// path-adaptive hybrid at several thresholds — all execution-driven, with
// completion time and power side by side.
//
// Run with:
//
//	go run ./examples/designspace [-kernel lu] [-cores 64]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"onocsim"
	"onocsim/internal/metrics"
)

func main() {
	kernel := flag.String("kernel", "lu", "kernel: fft | lu | stencil | sort | reduce")
	cores := flag.Int("cores", 64, "core count")
	flag.Parse()

	base := onocsim.DefaultConfig()
	base.System.Cores = *cores
	base.Workload.Kernel = *kernel

	type design struct {
		name   string
		kind   onocsim.NetworkKind
		mutate func(*onocsim.Config)
	}
	designs := []design{
		{"mesh (xy)", onocsim.Electrical, nil},
		{"mesh (west-first)", onocsim.Electrical, func(c *onocsim.Config) { c.Mesh.Routing = "westfirst" }},
		{"torus (xy)", onocsim.Electrical, func(c *onocsim.Config) { c.Mesh.Topology = "torus"; c.Mesh.VCs = 6 }},
		{"crossbar mwsr", onocsim.Optical, nil},
		{"crossbar swmr", onocsim.Optical, func(c *onocsim.Config) { c.Optical.Architecture = "swmr" }},
		{"hybrid t=2", onocsim.Hybrid, func(c *onocsim.Config) { c.Hybrid.Threshold = 2 }},
		{"hybrid t=4", onocsim.Hybrid, func(c *onocsim.Config) { c.Hybrid.Threshold = 4 }},
		{"hybrid t=6", onocsim.Hybrid, func(c *onocsim.Config) { c.Hybrid.Threshold = 6 }},
	}

	t := metrics.NewTable(
		fmt.Sprintf("design space — %s kernel, %d cores, execution-driven", *kernel, *cores),
		"design", "makespan", "mean lat", "static mW", "dynamic mW")
	ctx := context.Background()
	s := onocsim.NewSession("")
	for _, d := range designs {
		cfg := base
		if d.mutate != nil {
			d.mutate(&cfg)
		}
		res, err := s.RunExecutionDrivenContext(ctx, cfg, d.kind)
		if err != nil {
			log.Fatalf("%s: %v", d.name, err)
		}
		t.AddRow(d.name,
			fmt.Sprintf("%d", res.Makespan),
			fmt.Sprintf("%.1f", res.MeanLatency),
			fmt.Sprintf("%.0f", res.Power.StaticMW),
			fmt.Sprintf("%.1f", res.Power.DynamicMW),
		)
	}
	t.Note("same programs, same seed, five fabrics — the point of a unified fabric contract")
	if err := t.WriteASCII(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
