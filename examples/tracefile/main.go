// Tracefile demonstrates offline trace workflows: capture a trace, save it
// in the binary SCTM format, open it again as a streaming source, check its
// header against the capture, and run the self-correction model on the stored
// trace — the capture-once / evaluate-many-designs loop the trace methodology
// exists for. It sweeps an optical design parameter (wavelengths per channel)
// against the single stored trace, which every correction round streams from
// disk without materializing it.
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

	// Reopen and verify.
	src, err := onocsim.OpenTraceFile(*out)
	if err != nil {
		log.Fatal(err)
	}
	if m := src.Meta(); m != tr.Meta() {
		log.Fatalf("round-trip mismatch: header %+v, captured %+v", m, tr.Meta())
	}
	fmt.Println("round-trip verified")

	// Evaluate many optical designs against the one stored trace.
	t := metrics.NewTable("design sweep from one stored trace (fft, 16 cores)",
		"wavelengths/channel", "estimated makespan", "mean latency", "rounds")
	for _, wl := range []int{4, 8, 16, 32, 64} {
		c := cfg
		c.Optical.WavelengthsPerChannel = wl
		res, err := s.RunSelfCorrectionContext(ctx, c, src, onocsim.Optical)
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
