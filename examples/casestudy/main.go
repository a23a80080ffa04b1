// Casestudy reproduces the paper's case study (experiment R5): run real
// parallel kernels execution-driven on the baseline electrical mesh and on
// the optical crossbar, and compare application completion time and network
// power — the "compare our system running real application with a baseline
// NOC simulator" claim of the abstract.
//
// Run with:
//
//	go run ./examples/casestudy [-cores 64]
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"

	"onocsim"
	"onocsim/internal/metrics"
	"onocsim/internal/workload"
)

func main() {
	cores := flag.Int("cores", 64, "core count (perfect square; power of two for fft)")
	flag.Parse()

	t := metrics.NewTable(
		fmt.Sprintf("ONOC vs electrical baseline, %d cores, execution-driven", *cores),
		"kernel", "elec makespan", "opt makespan", "speedup",
		"elec power (mW)", "opt power (mW)")
	var speedups []float64
	ctx := context.Background()
	s := onocsim.NewSession("")
	for _, k := range workload.KernelNames() {
		cfg := onocsim.DefaultConfig()
		cfg.System.Cores = *cores
		cfg.Workload.Kernel = k

		elec, err := s.RunExecutionDrivenContext(ctx, cfg, onocsim.Electrical)
		if err != nil {
			log.Fatalf("%s electrical: %v", k, err)
		}
		opt, err := s.RunExecutionDrivenContext(ctx, cfg, onocsim.Optical)
		if err != nil {
			log.Fatalf("%s optical: %v", k, err)
		}
		sp := float64(elec.Makespan) / float64(opt.Makespan)
		speedups = append(speedups, sp)
		t.AddRow(k,
			fmt.Sprintf("%d", elec.Makespan),
			fmt.Sprintf("%d", opt.Makespan),
			fmt.Sprintf("%.2fx", sp),
			fmt.Sprintf("%.1f", elec.Power.TotalMW()),
			fmt.Sprintf("%.1f", opt.Power.TotalMW()),
		)
	}
	t.Note("geometric-mean optical speedup: %.2fx", metrics.GeoMean(speedups))
	if err := t.WriteASCII(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
