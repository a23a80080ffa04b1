// Command bench is the repository's benchmark of record (see README.md in
// this directory and BENCHMARK.json at the root).
//
//	go run ./bench --workload mesh_correct --seed 1 --seconds 15 --trace 0
//
// runs one workload in this process and prints every end-to-end metric by
// name and unit, then one JSON line with the verdict; --trace 1 is the
// shorter traced run that prints the per-layer metrics instead.
//
//	go run ./bench [-runs N] [-o results.json]
//
// runs all four workloads, each in a child process of its own, untraced and
// then traced, N times over seeds seed..seed+N-1, and writes the set.
//
//	go run ./bench -compare A.json B.json
//
// judges set B against set A by the bounds in BENCHMARK.json.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
)

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	var (
		workload     = flag.String("workload", "", "run one workload in this process: mesh_correct, xbar_stream, sweep_default or serve_mix (default: all four, one child process each)")
		seed         = flag.Uint64("seed", 1, "drives every generated input; 2 is the held-out seed")
		seconds      = flag.Float64("seconds", 15, "how long one run measures")
		traced       = flag.Int("trace", 0, "1 = the traced run (per-layer metrics), 0 = the run of record (end-to-end metrics)")
		outDir       = flag.String("out", filepath.Join("bench", "out"), "directory for result files, trace files and scratch")
		setupOnly    = flag.Bool("setup-only", false, "set the workload up, run its warm-up pass and exit (what setup_s times)")
		runs         = flag.Int("runs", 1, "with no --workload: how many times to run every workload")
		setFile      = flag.String("o", "", "with no --workload: where to write the result set (default <out>/results.json)")
		doCompare    = flag.Bool("compare", false, "compare two result sets: -compare A.json B.json")
		updateGolden = flag.Bool("update-golden", false, "rewrite bench/golden.json from seeds 1 and 2 (run from the repository root)")
		attribute    = flag.Bool("attribution", false, "print the per-layer rows of one cold correct request on the mesh and on the crossbar")
	)
	flag.Parse()
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	switch {
	case *doCompare:
		if flag.NArg() != 2 {
			return errors.New("-compare takes two result files")
		}
		a, err := readResultSet(flag.Arg(0))
		if err != nil {
			return err
		}
		b, err := readResultSet(flag.Arg(1))
		if err != nil {
			return err
		}
		if compare(os.Stdout, a, b) {
			return errors.New("set B regressed against set A")
		}
		return nil
	case *attribute:
		return attribution(ctx, fullSize)
	case *updateGolden:
		return rewriteGoldens(ctx, *outDir)
	case *workload == "":
		file := *setFile
		if file == "" {
			file = filepath.Join(*outDir, "results.json")
		}
		return runAll(ctx, *seed, *seconds, *runs, *outDir, file)
	}

	if *setupOnly {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			return err
		}
		scratch, err := os.MkdirTemp(*outDir, "scratch-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(scratch)
		w, err := newWorkload(*workload, *seed, fullSize, scratch)
		if err != nil {
			return err
		}
		defer w.close()
		return w.setup(ctx)
	}

	golden, err := loadGoldens()
	if err != nil {
		return err
	}
	res, err := run(ctx, runOpts{
		workload: *workload, seed: *seed, seconds: *seconds, traced: *traced == 1, size: fullSize,
		outDir: *outDir, setupChildren: 3, golden: golden, log: os.Stdout,
	})
	if err != nil {
		return err
	}
	if err := writeJSON(resultFile(*outDir, *workload, *traced == 1), res); err != nil {
		return err
	}
	specs := endToEnd
	if res.Traced {
		specs = perLayer
	}
	return printResult(os.Stdout, res, specs)
}

func resultFile(outDir, workload string, traced bool) string {
	kind := "timed"
	if traced {
		kind = "traced"
	}
	return filepath.Join(outDir, fmt.Sprintf("result-%s-%s.json", workload, kind))
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// runAll runs every workload in a child process of its own, so that peak
// memory and allocation counts belong to one workload, and gathers the
// children's result files into one set.
func runAll(ctx context.Context, seed uint64, seconds float64, runs int, outDir, file string) error {
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	set := &resultSet{Host: readHostInfo()}
	failed := false
	for r := 0; r < runs; r++ {
		for _, traced := range []bool{false, true} {
			if traced && r > 0 {
				continue // one traced run per set: its numbers carry no bound
			}
			for _, name := range workloadNames {
				trace := "0"
				if traced {
					trace = "1"
				}
				cmd := exec.CommandContext(ctx, exe, "--workload", name, "--seed", strconv.FormatUint(seed+uint64(r), 10),
					"--seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "--trace", trace, "--out", outDir)
				cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
				if err := cmd.Run(); err != nil {
					return fmt.Errorf("%s: %w", name, err)
				}
				res := &runResult{}
				data, err := os.ReadFile(resultFile(outDir, name, traced))
				if err != nil {
					return err
				}
				if err := json.Unmarshal(data, res); err != nil {
					return err
				}
				set.Runs = append(set.Runs, res)
				failed = failed || !res.Correct
			}
		}
	}
	if err := writeJSON(file, set); err != nil {
		return err
	}
	fmt.Printf("result set of %d runs written to %s\n", len(set.Runs), file)
	if failed {
		return errors.New("at least one run failed its output check")
	}
	return nil
}

// rewriteGoldens re-derives bench/golden.json for the default and the
// held-out seed from minimal runs of every workload.
func rewriteGoldens(ctx context.Context, outDir string) error {
	g := &goldens{Digests: map[string]map[string]map[string]string{}}
	for _, name := range workloadNames {
		for _, seed := range []uint64{1, 2} {
			res, err := run(ctx, runOpts{workload: name, seed: seed, size: fullSize, outDir: outDir,
				golden: g, updateGolden: true, log: os.Stdout})
			if err != nil {
				return err
			}
			if !res.Correct {
				return fmt.Errorf("%s seed %d fails its own invariants: %v", name, seed, res.Errors)
			}
			fmt.Printf("%s seed %d: %d ops pinned\n", name, seed, len(res.Digests))
		}
	}
	return g.save(filepath.Join("bench", "golden.json"))
}
