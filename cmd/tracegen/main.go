// Command tracegen captures a dependency-annotated trace by running the
// configured workload execution-driven on a capture fabric, then writes it
// in the binary SCTM format (or JSON with -json).
//
// With -huge it instead streams a synthetic generated trace straight to
// disk: events are encoded as they are produced and never materialized, so
// traces far larger than memory can be generated for the out-of-core replay
// path (-events sets the length, -pattern/-bytes/-gap the shape).
//
// Example:
//
//	tracegen -kernel fft -cores 64 -out fft64.sctm
//	tracegen -config exp.json -capture-on electrical -out exp.sctm -json exp.json.trace
//	tracegen -huge -events 50000000 -pattern hotspot -out huge.sctm
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"onocsim"
	"onocsim/internal/cliutil"
	"onocsim/internal/trace"
	"onocsim/internal/workload"
)

func main() {
	var (
		cfgPath   = flag.String("config", "", "JSON config file (default: built-in baseline)")
		kernel    = flag.String("kernel", "", "override workload kernel: "+strings.Join(workload.KernelNames(), " | "))
		cores     = flag.Int("cores", 0, "override core count")
		captureOn = flag.String("capture-on", "ideal", "capture fabric: ideal | electrical | optical")
		out       = flag.String("out", "trace.sctm", "output path (binary format)")
		jsonOut   = flag.String("json", "", "optional JSON dump path")
		huge      = flag.Bool("huge", false, "generate a synthetic trace streamed to disk instead of capturing")
		events    = flag.Int("events", 0, "-huge: event count (default 1Mi)")
		pattern   = flag.String("pattern", "uniform", "-huge: traffic pattern: uniform | hotspot | neighbor")
		bytesMean = flag.Int("bytes", 64, "-huge: mean payload bytes")
		gap       = flag.Int("gap", 20, "-huge: mean per-source think time in cycles")
	)
	flag.Parse()
	var err error
	if *huge {
		err = runHuge(*cfgPath, *cores, *events, *pattern, *bytesMean, *gap, *out)
	} else {
		err = run(*cfgPath, *kernel, *cores, *captureOn, *out, *jsonOut)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tracegen:", err)
	}
	os.Exit(cliutil.ExitCode(err))
}

func run(cfgPath, kernel string, cores int, captureOn, out, jsonOut string) error {
	switch captureOn {
	case "ideal", "electrical", "optical":
	default:
		return cliutil.Usagef("unknown capture fabric %q (want ideal, electrical, or optical)", captureOn)
	}
	if kernel != "" && !slices.Contains(workload.KernelNames(), kernel) {
		return cliutil.Usagef("unknown kernel %q (want one of %v)", kernel, workload.KernelNames())
	}
	cfg := onocsim.DefaultConfig()
	if cfgPath != "" {
		var err error
		cfg, err = onocsim.LoadConfig(cfgPath)
		if err != nil {
			return err
		}
	}
	if kernel != "" {
		cfg.Workload.Kernel = kernel
	}
	if cores > 0 {
		cfg.System.Cores = cores
	}
	if err := cfg.Validate(); err != nil {
		return err
	}

	tr, wall, err := onocsim.NewSession("").CaptureTraceContext(context.Background(), cfg, onocsim.NetworkKind(captureOn))
	if err != nil {
		return err
	}
	if err := onocsim.SaveTrace(out, tr); err != nil {
		return err
	}
	if jsonOut != "" {
		f, err := os.Create(jsonOut)
		if err != nil {
			return err
		}
		if err := trace.WriteJSON(f, tr); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
	}
	st := tr.ComputeStats()
	fmt.Printf("captured %s on %s fabric in %s\n", cfg.Workload.Kernel, captureOn, wall)
	fmt.Printf("  %s\n", st)
	fmt.Printf("wrote %s\n", out)
	if jsonOut != "" {
		fmt.Printf("wrote %s\n", jsonOut)
	}
	return nil
}

// runHuge streams a generated trace to disk with O(nodes) resident memory.
// The config contributes only the seed and (absent -cores) the node count.
func runHuge(cfgPath string, cores, events int, pattern string, bytesMean, gap int, out string) error {
	cfg := onocsim.DefaultConfig()
	if cfgPath != "" {
		var err error
		cfg, err = onocsim.LoadConfig(cfgPath)
		if err != nil {
			return err
		}
	}
	spec := workload.DefaultHugeSpec()
	spec.Nodes = cfg.System.Cores
	spec.Seed = cfg.Seed
	if cores > 0 {
		spec.Nodes = cores
	}
	if events > 0 {
		spec.Events = events
	}
	spec.Pattern = pattern
	spec.Bytes = bytesMean
	spec.Gap = gap

	makespan, err := workload.WriteHugeFile(out, spec)
	if err != nil {
		return err
	}
	fi, err := os.Stat(out)
	if err != nil {
		return err
	}
	fmt.Printf("generated %d %s events over %d nodes (ref makespan %d cycles)\n",
		spec.Events, spec.Pattern, spec.Nodes, makespan)
	fmt.Printf("wrote %s (%d bytes)\n", out, fi.Size())
	return nil
}
