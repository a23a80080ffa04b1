// Tracefile demonstrates offline trace workflows: capture a trace, save it
// in the binary SCTM format, reload it, verify it round-trips bit-exactly,
// and run the self-correction model on the reloaded trace — the
// capture-once / evaluate-many-designs loop the trace methodology exists
// for. It finishes by sweeping an optical design parameter (wavelengths per
// channel) against the single stored trace.
//
// Run with:
//
//	go run ./examples/tracefile [-out /tmp/kernel.sctm]
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
	out := flag.String("out", os.TempDir()+"/onocsim-example.sctm", "trace file path")
	flag.Parse()

	cfg := onocsim.DefaultConfig()
	cfg.System.Cores = 16
	cfg.Workload.Kernel = "fft"
	cfg.Workload.Scale = 4

	ctx := context.Background()
	s := onocsim.NewSession("")

	// Capture and persist.
	tr, _, err := s.CaptureTraceContext(ctx, cfg, onocsim.IdealNet)
	if err != nil {
		log.Fatal(err)
	}
	if err := onocsim.SaveTrace(*out, tr); err != nil {
		log.Fatal(err)
	}
	info, err := os.Stat(*out)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("captured %d events, wrote %s (%d bytes, %.1f bytes/event)\n",
		tr.NumEvents(), *out, info.Size(), float64(info.Size())/float64(tr.NumEvents()))

	// Reload and verify.
	tr2, err := onocsim.LoadTrace(*out)
	if err != nil {
		log.Fatal(err)
	}
	if tr2.NumEvents() != tr.NumEvents() || tr2.RefMakespan != tr.RefMakespan {
		log.Fatalf("round-trip mismatch: %d/%d events, %d/%d makespan",
			tr2.NumEvents(), tr.NumEvents(), tr2.RefMakespan, tr.RefMakespan)
	}
	fmt.Println("round-trip verified")

	// Evaluate many optical designs against the one stored trace.
	t := metrics.NewTable("design sweep from one stored trace (fft, 16 cores)",
		"wavelengths/channel", "estimated makespan", "mean latency", "rounds")
	for _, wl := range []int{4, 8, 16, 32, 64} {
		c := cfg
		c.Optical.WavelengthsPerChannel = wl
		res, _, err := s.RunSelfCorrectionContext(ctx, c, tr2, onocsim.Optical)
		if err != nil {
			log.Fatal(err)
		}
		t.AddRow(
			fmt.Sprintf("%d", wl),
			fmt.Sprintf("%d", res.Final.Makespan),
			fmt.Sprintf("%.1f", res.Final.MeanLatency),
			fmt.Sprintf("%d", len(res.Iterations)),
		)
	}
	if err := t.WriteASCII(os.Stdout); err != nil {
		log.Fatal(err)
	}
}
