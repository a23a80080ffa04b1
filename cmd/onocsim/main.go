// Command onocsim runs one simulation described by a JSON config file.
//
// Modes:
//
//	exec     — execution-driven simulation on the selected fabric
//	study    — full methodology comparison (ground truth, naive replay,
//	           coupled replay, self-correction) on the selected fabric
//	correct  — capture the config's kernel trace and run the
//	           self-correction loop on the selected fabric
//	estimate — price the config's kernel trace on the selected fabric with
//	           the closed-form contention model (no fabric ticks)
//
// Every mode is one typed job (internal/job), built by the same job.New call
// the onocsimd daemon makes for POST /v1/simulate, so the table printed here
// and the daemon's response payload for the same document are renderings of
// identical values. Batches — the registered experiments and design-space
// sweeps — are expreport's (-exp, -sweep).
//
// Examples:
//
//	onocsim -mode exec -network optical
//	onocsim -config myexp.json -mode study
//	onocsim -dump-config > baseline.json
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"

	"onocsim"
	"onocsim/internal/cliutil"
	"onocsim/internal/job"
	"onocsim/internal/prof"
)

// options carries every flag; run is kept flag-free so tests drive it
// directly.
type options struct {
	cfgPath    string
	network    string
	mode       string
	format     string
	dumpConfig bool
}

func main() {
	var o options
	flag.StringVar(&o.cfgPath, "config", "", "JSON config file (default: built-in baseline)")
	flag.StringVar(&o.network, "network", "", "fabric: electrical | optical | hybrid | ideal (default: keep the config's own network, electrical in the baseline)")
	flag.StringVar(&o.mode, "mode", "exec", "run mode: exec | study | correct | estimate")
	flag.StringVar(&o.format, "format", "ascii", "output format: ascii | json")
	flag.BoolVar(&o.dumpConfig, "dump-config", false, "print the effective config as JSON and exit")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()
	stop, err := prof.Start(*cpuprofile, *memprofile)
	if err == nil {
		err = run(os.Stdout, o)
	}
	if perr := stop(); err == nil {
		err = perr
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "onocsim:", err)
	}
	os.Exit(cliutil.ExitCode(err))
}

func run(w io.Writer, o options) error {
	if o.format != "ascii" && o.format != "json" {
		return cliutil.Usagef("unknown format %q (want ascii or json)", o.format)
	}
	if o.mode == "sweep" {
		return cliutil.Usagef("-mode sweep: this command runs one simulation; a design-space sweep is `expreport -sweep default` (or a spec file)")
	}
	cfg := onocsim.DefaultConfig()
	if o.cfgPath != "" {
		var err error
		if cfg, err = onocsim.LoadConfig(o.cfgPath); err != nil {
			return err
		}
	}
	// cfg is valid, so what New can still refuse is a flag's own word: the
	// mode or the network.
	j, err := job.New(o.mode, o.network, cfg, "")
	if err != nil {
		return cliutil.UsageError{Err: err}
	}
	if o.dumpConfig {
		return j.Config.Save("/dev/stdout")
	}
	// ascii and json are two renderings of the job's table, so the JSON
	// carries the same values (with kinds and units) that the terminal shows.
	runner := &job.Runner{Session: onocsim.NewSession("")}
	res, err := runner.Run(context.Background(), j)
	if err != nil {
		return err
	}
	if o.format == "json" {
		return res.Table.WriteJSON(w)
	}
	return res.Table.WriteASCII(w)
}
