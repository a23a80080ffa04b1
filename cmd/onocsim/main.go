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
	"onocsim/internal/config"
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
	faults     string
	seedMode   string
	dumpConfig bool
	shards     int
	incr       bool
}

func main() {
	var o options
	flag.StringVar(&o.cfgPath, "config", "", "JSON config file (default: built-in baseline)")
	flag.StringVar(&o.network, "network", "", "fabric: electrical | optical | hybrid | ideal (default: keep the config's own network, electrical in the baseline)")
	flag.StringVar(&o.mode, "mode", "exec", "run mode: exec | study | correct | estimate")
	flag.StringVar(&o.format, "format", "ascii", "output format: ascii | json")
	flag.StringVar(&o.faults, "faults", "", "optical fault-injection preset: off | light | heavy (default: keep the config file's faults section)")
	flag.BoolVar(&o.dumpConfig, "dump-config", false, "print the effective config as JSON and exit")
	flag.IntVar(&o.shards, "shards", 0, "shard count for replay-family simulations (0: keep the config's, which is 1 = serial unless a -config file says otherwise; results are identical for any count, but K > 1 runs slower today, ≈2.5× at K = 2: the statistics merge costs more than the split saves)")
	flag.BoolVar(&o.incr, "incremental", false, "resume self-correction rounds from frozen-prefix checkpoints instead of replaying from cycle zero (results are identical)")
	flag.StringVar(&o.seedMode, "seedmode", "", "self-correction round-0 seeding: zeroload | analytic | fixed (default: keep the config file's sctm.seed)")
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
	cfg, err := effectiveConfig(o)
	if err != nil {
		return err
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

// effectiveConfig is the validated config document the job is built from: the
// baseline or -config file with every flag that was given laid over it. A
// flag left unset leaves the config's own value alone; -network is laid on by
// job.New, the way the daemon lays a request's network field on.
func effectiveConfig(o options) (onocsim.Config, error) {
	cfg := onocsim.DefaultConfig()
	if o.cfgPath != "" {
		var err error
		cfg, err = onocsim.LoadConfig(o.cfgPath)
		if err != nil {
			return cfg, err
		}
	}
	if o.faults != "" {
		f, err := config.FaultPreset(o.faults)
		if err != nil {
			return cfg, cliutil.UsageError{Err: err}
		}
		cfg.Faults = f
	}
	if o.seedMode != "" {
		cfg.SCTM.Seed = o.seedMode
	}
	// Sharding and incremental correction never change results, only how
	// long they take — and K > 1 shards take longer today, so the serial
	// default stays unless asked otherwise.
	if o.shards != 0 {
		cfg.Parallelism.Shards = o.shards
	}
	if o.incr {
		cfg.SCTM.Incremental = true
	}
	return cfg, cfg.Validate()
}
