// Command expreport regenerates the reconstructed paper evaluation: every
// table and figure R1–R20 registered in the experiment registry (DESIGN.md
// §3 and §8), rendered as aligned ASCII, CSV, markdown, or versioned JSON.
// The tool itself is a thin renderer: experiment identity, cost and wiring
// live in internal/experiments, and every output format is a view of the same
// typed tables.
//
// Examples:
//
//	expreport -list
//	expreport -exp all
//	expreport -exp r1 -cores 64
//	expreport -exp r4 -format csv > r4.csv
//	expreport -exp r1 -format json | jq '.results[0].table'
//	expreport -exp all -quick              # CI-sized sweeps
//	expreport -exp all -progress           # live stderr progress
//	expreport -exp all -cachedir ~/.cache/onocsim
//	expreport -sweep default               # design-space sweep, built-in grid
//	expreport -sweep grid.json             # custom design-space sweep
//	expreport -exp all -quick -format md   # the tables as markdown
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"sync"
	"time"

	"onocsim"
	"onocsim/internal/cliutil"
	"onocsim/internal/config"
	"onocsim/internal/experiments"
	"onocsim/internal/metrics"
	"onocsim/internal/prof"
	"onocsim/internal/sweep"
)

func main() {
	var (
		exp        = flag.String("exp", "all", "experiment id (r1..r20) or 'all'")
		cores      = flag.Int("cores", 64, "core count for kernel experiments")
		seed       = flag.Uint64("seed", 42, "experiment seed")
		quick      = flag.Bool("quick", false, "shrink sweeps (CI-sized)")
		format     = flag.String("format", "ascii", "output format: ascii | csv | md | json")
		list       = flag.Bool("list", false, "list the registered experiments (id, cost, summary) and exit")
		cachedir   = flag.String("cachedir", "", "persist captured traces and results here and reload them across invocations")
		sweepPath  = flag.String("sweep", "", "run a design-space sweep from this JSON spec instead of the registered experiments ('default': the built-in grid)")
		progress   = flag.Bool("progress", false, "stream experiment and simulation progress to stderr")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile to this file on exit")
		verbose    = flag.Bool("v", false, "report cache statistics on stderr")
	)
	flag.Parse()
	opts := experiments.Options{Seed: *seed, Cores: *cores, Quick: *quick}
	if *progress {
		opts.Progress = &progressLogger{w: os.Stderr}
	}
	// One session serves the whole invocation, so every experiment — whether
	// run via -exp all or singly — and every sweep arm shares one memo table,
	// -cachedir reuses what earlier invocations persisted, and -v has
	// something to report.
	opts.Session = onocsim.NewSession(*cachedir)
	if opts.Progress != nil {
		opts.Session.SetProgress(opts.Progress)
	}
	var err error
	if *list {
		err = runList(os.Stdout, *format)
	} else {
		var stopProf func() error
		stopProf, err = prof.Start(*cpuprofile, *memprofile)
		if err == nil {
			if *sweepPath == "" {
				err = run(os.Stdout, *exp, opts, *format)
			} else if err = sweepFlagConflict(flag.CommandLine); err == nil {
				err = runSweep(os.Stdout, *sweepPath, opts, *format)
			}
		}
		if perr := stopProf(); err == nil {
			err = perr
		}
	}
	if *verbose {
		st := opts.Session.CacheStats()
		fmt.Fprintf(os.Stderr, "expreport: cache: %d computed, %d hits, %d single-flight waits, %d disk hits, %d disk errors\n",
			st.Misses, st.Hits, st.Waits, st.DiskHits, st.DiskErrors)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "expreport:", err)
	}
	os.Exit(cliutil.ExitCode(err))
}

// progressLogger streams progress events as stderr lines. Events arrive from
// many goroutines, so each line is written under a mutex.
type progressLogger struct {
	mu sync.Mutex
	w  io.Writer
}

func (p *progressLogger) Event(e onocsim.ProgressEvent) {
	p.mu.Lock()
	defer p.mu.Unlock()
	switch e.Kind {
	case onocsim.ProgressExperimentStart:
		fmt.Fprintf(p.w, "expreport: %s start — %s\n", e.Experiment, e.Title)
	case onocsim.ProgressExperimentDone:
		if e.Err != nil {
			fmt.Fprintf(p.w, "expreport: %s failed after %s: %v\n", e.Experiment, e.Elapsed.Round(time.Millisecond), e.Err)
		} else {
			fmt.Fprintf(p.w, "expreport: %s done in %s\n", e.Experiment, e.Elapsed.Round(time.Millisecond))
		}
	case onocsim.ProgressSweepArm:
		fmt.Fprintf(p.w, "expreport: sweep %-9s %s\n", e.Op, e.Sim)
	default:
		fmt.Fprintf(p.w, "expreport: sim %s %s\n", e.Kind, e.Sim)
	}
}

// textFormats are the per-table renderings -format selects. JSON output goes
// through a versioned document instead, so single-experiment and all runs
// share one shape.
var textFormats = map[string]func(*metrics.Table, io.Writer) error{
	"ascii": (*metrics.Table).WriteASCII,
	"csv":   (*metrics.Table).WriteCSV,
	"md":    (*metrics.Table).WriteMarkdown,
}

// checkFormat validates the -format value; unknown formats are usage errors
// (exit 2), matching the flag-parse convention.
func checkFormat(format string) error {
	if _, ok := textFormats[format]; ok || format == "json" {
		return nil
	}
	return cliutil.Usagef("unknown format %q (want ascii, csv, md, or json)", format)
}

// writeTables renders tables one after another in a text format, a blank
// line between them.
func writeTables(w io.Writer, format string, tables ...*metrics.Table) error {
	for i, t := range tables {
		if i > 0 {
			fmt.Fprintln(w)
		}
		if err := textFormats[format](t, w); err != nil {
			return err
		}
	}
	return nil
}

// resultsDoc is the versioned document emitted by -format json: the table
// format version and one entry per experiment, in the order they ran.
type resultsDoc struct {
	Version int           `json:"version"`
	Results []resultEntry `json:"results"`
}

type resultEntry struct {
	ID    string         `json:"id"`
	Table *metrics.Table `json:"table"`
}

// writeJSONDoc emits the versioned results document.
func writeJSONDoc(w io.Writer, ids []string, tables []*metrics.Table) error {
	doc := resultsDoc{Version: metrics.TableFormatVersion}
	for i, t := range tables {
		doc.Results = append(doc.Results, resultEntry{ID: ids[i], Table: t})
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// runList renders the experiment registry (the -list view).
func runList(w io.Writer, format string) error {
	if err := checkFormat(format); err != nil {
		return err
	}
	t := metrics.NewTable("Registered experiments", "id", "cost", "summary")
	for _, d := range experiments.Registry() {
		t.AddCells(metrics.String(d.ID), metrics.String(d.CostClass.String()), metrics.String(d.Summary))
	}
	if format == "json" {
		return writeJSONDoc(w, []string{"registry"}, []*metrics.Table{t})
	}
	return writeTables(w, format, t)
}

// sweepFlagConflict refuses the flags that scale the registered experiments
// when they are given beside -sweep: a sweep is its spec, which POST
// /v1/sweeps must answer alike, so no flag overlays it.
func sweepFlagConflict(fs *flag.FlagSet) error {
	var err error
	fs.Visit(func(f *flag.Flag) {
		if f.Name == "seed" || f.Name == "quick" {
			err = cliutil.Usagef("-%s does not apply to -sweep: a sweep is its spec, set %q in the spec file", f.Name, f.Name)
		}
	})
	return err
}

// sweepSpec is the spec -sweep names: the built-in grid or a spec file, and
// nothing laid over either.
func sweepSpec(path string) (config.Sweep, error) {
	if path == "default" {
		return config.DefaultSweep(), nil
	}
	return config.LoadSweep(path)
}

// runSweep drives the design-space sweep pipeline (internal/sweep) from a
// spec — the batch counterpart of a single -exp run, and the one CLI door for
// a sweep. -progress streams per-arm phases through the shared progressLogger,
// and the invocation's session (-cachedir) memoizes the arms.
func runSweep(w io.Writer, path string, opts experiments.Options, format string) error {
	if err := checkFormat(format); err != nil {
		return err
	}
	spec, err := sweepSpec(path)
	if err != nil {
		return err
	}
	res, err := sweep.Run(context.Background(), spec, sweep.Options{
		Session:  opts.Session,
		Progress: opts.Progress,
	})
	if err != nil {
		return err
	}
	if format == "json" {
		return res.WriteJSON(w)
	}
	return writeTables(w, format, res.Summary, res.Front)
}

func run(w io.Writer, exp string, opts experiments.Options, format string) error {
	if err := checkFormat(format); err != nil {
		return err
	}
	if exp != "all" && !experiments.Known(exp) {
		return cliutil.Usagef("unknown experiment %q (want %s, or all)", exp, strings.Join(experiments.Names(), ", "))
	}
	var (
		ids    []string
		tables []*metrics.Table
	)
	if exp == "all" {
		all, err := experiments.All(context.Background(), opts)
		if err != nil {
			return err
		}
		ids, tables = experiments.Names(), all
	} else {
		t, err := experiments.ByName(context.Background(), exp, opts)
		if err != nil {
			return err
		}
		ids, tables = []string{exp}, []*metrics.Table{t}
	}
	if format == "json" {
		return writeJSONDoc(w, ids, tables)
	}
	return writeTables(w, format, tables...)
}
