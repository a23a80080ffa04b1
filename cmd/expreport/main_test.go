package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"onocsim/internal/cliutil"
	"onocsim/internal/config"
	"onocsim/internal/experiments"
	"onocsim/internal/metrics"
)

var quick = experiments.Options{Seed: 42, Cores: 16, Quick: true}

func TestRunSingleExperimentASCIIAndCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "r1", quick, "ascii"); err != nil {
		t.Fatal(err)
	}
	if err := run(&buf, "r1", quick, "csv"); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	err := run(&bytes.Buffer{}, "r99", quick, "ascii")
	if err == nil {
		t.Fatal("unknown experiment accepted")
	}
	if cliutil.ExitCode(err) != 2 {
		t.Fatalf("unknown experiment should be a usage error (exit 2), got %v (exit %d)", err, cliutil.ExitCode(err))
	}
	if err := run(&bytes.Buffer{}, "all", experiments.Options{Seed: 1, Cores: 16, Quick: true}, "csv"); err != nil {
		// "all" must also fail loudly on an unknown id embedded in the
		// sequence — it shouldn't here.
		t.Fatalf("all (quick, csv): %v", err)
	}
}

func TestRunFormatValidation(t *testing.T) {
	for _, bad := range []string{"yaml", "", "Json", "ascii,csv"} {
		err := run(&bytes.Buffer{}, "r13", quick, bad)
		if err == nil {
			t.Fatalf("format %q accepted", bad)
		}
		if cliutil.ExitCode(err) != 2 {
			t.Fatalf("format %q: want usage error (exit 2), got %v (exit %d)", bad, err, cliutil.ExitCode(err))
		}
	}
}

func TestRunList(t *testing.T) {
	var buf bytes.Buffer
	if err := runList(&buf, "ascii"); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"r1", "r18", "heavy", "light", "headline accuracy"} {
		if !strings.Contains(out, want) {
			t.Fatalf("list output missing %q:\n%s", want, out)
		}
	}
	if err := runList(&bytes.Buffer{}, "nope"); cliutil.ExitCode(err) != 2 {
		t.Fatalf("bad list format: want exit 2, got %v", err)
	}
	var jbuf bytes.Buffer
	if err := runList(&jbuf, "json"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version int `json:"version"`
		Results []struct {
			ID    string         `json:"id"`
			Table *metrics.Table `json:"table"`
		} `json:"results"`
	}
	if err := json.Unmarshal(jbuf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Results) != 1 || doc.Results[0].Table.NumRows() != len(experiments.Registry()) {
		t.Fatalf("list json: want one table with %d rows, got %+v", len(experiments.Registry()), doc)
	}
}

// TestRunJSONRoundTrip pins the -format json contract: the document is
// versioned, cells carry numeric values and units, and a decoded table
// renders byte-identically to the directly rendered ASCII.
func TestRunJSONRoundTrip(t *testing.T) {
	var jbuf bytes.Buffer
	if err := run(&jbuf, "r13", quick, "json"); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Version int `json:"version"`
		Results []struct {
			ID    string         `json:"id"`
			Table *metrics.Table `json:"table"`
		} `json:"results"`
	}
	if err := json.Unmarshal(jbuf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Version != metrics.TableFormatVersion {
		t.Fatalf("doc version = %d, want %d", doc.Version, metrics.TableFormatVersion)
	}
	if len(doc.Results) != 1 || doc.Results[0].ID != "r13" {
		t.Fatalf("want one r13 result, got %+v", doc.Results)
	}
	decoded := doc.Results[0].Table
	if v, ok := decoded.At(0, 0).Value(); !ok || v != 16 {
		t.Fatalf("decoded cell (0,0) lost its numeric value: %+v", decoded.At(0, 0))
	}
	if unit := decoded.At(0, 0).Unit; unit != "nodes" {
		t.Fatalf("decoded cell (0,0) lost its unit: %q", unit)
	}

	var direct bytes.Buffer
	if err := run(&direct, "r13", quick, "ascii"); err != nil {
		t.Fatal(err)
	}
	var rendered bytes.Buffer
	if err := decoded.WriteASCII(&rendered); err != nil {
		t.Fatal(err)
	}
	if rendered.String() != direct.String() {
		t.Fatalf("decoded table renders differently:\n--- direct ---\n%s--- decoded ---\n%s", direct.String(), rendered.String())
	}
}

// TestRunSweepMode drives the sweep pipeline through its one CLI entry point
// on a deliberately tiny grid (2 unique arms after identity collapsing), in
// every format.
func TestRunSweepMode(t *testing.T) {
	spec := config.Sweep{
		Networks:    []config.NetworkKind{config.NetElectrical, config.NetOptical},
		Cores:       []int{16},
		Wavelengths: []int{16},
		Faults:      []string{"off"},
		Kernels:     []string{"stencil"},
		Quick:       true,
	}
	spec.Normalize()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for format, want := range map[string]string{
		"ascii": "Pareto front: sweep",
		"json":  `"front_points"`,
		"csv":   "arm,cells,est latency",
		"md":    "| arm | cells | est latency",
	} {
		var buf bytes.Buffer
		if err := runSweep(&buf, path, quick, format); err != nil {
			t.Fatalf("sweep (%s): %v", format, err)
		}
		if !strings.Contains(buf.String(), want) {
			t.Errorf("sweep (%s): output lacks %q:\n%s", format, want, buf.String())
		}
	}
	// A bad spec is a runtime error, not a crash.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"cores":[7]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runSweep(&bytes.Buffer{}, bad, quick, "ascii"); err == nil {
		t.Fatal("invalid sweep spec accepted")
	}
}

// A sweep is its spec, as it is for POST /v1/sweeps: the file's own "seed"
// reaches sweep.Run (not -seed's default of 42), the built-in grid runs seed
// 42 and quick, and -seed or -quick given beside -sweep is a usage error
// naming the spec field.
func TestSweepIsItsSpec(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, []byte(`{"cores":[16],"kernels":["stencil"],"seed":7}`), 0o644); err != nil {
		t.Fatal(err)
	}
	spec, err := sweepSpec(path)
	if err != nil || spec.Seed != 7 || spec.Quick {
		t.Fatalf("spec file: seed %d quick %v (%v), want its own 7 and false", spec.Seed, spec.Quick, err)
	}
	spec, err = sweepSpec("default")
	if spec.Normalize(); err != nil || spec.Seed != 42 || !spec.Quick {
		t.Fatalf("default: seed %d quick %v (%v), want 42 and true", spec.Seed, spec.Quick, err)
	}
	for _, args := range [][]string{{"-seed", "42"}, {"-quick"}, {"-sweep", "default"}} {
		fs := flag.NewFlagSet("expreport", flag.ContinueOnError)
		fs.Uint64("seed", 42, "")
		fs.Bool("quick", false, "")
		fs.String("sweep", "", "")
		if err := fs.Parse(args); err != nil {
			t.Fatal(err)
		}
		err := sweepFlagConflict(fs)
		if name := strings.TrimPrefix(args[0], "-"); name == "sweep" {
			if err != nil {
				t.Errorf("-sweep alone refused: %v", err)
			}
		} else if cliutil.ExitCode(err) != 2 || !strings.Contains(err.Error(), `"`+name+`"`) {
			t.Errorf("%v beside -sweep: %v, want a usage error naming the spec's %q", args, err, name)
		}
	}
}

func TestRunMarkdown(t *testing.T) {
	var buf bytes.Buffer
	if err := run(&buf, "r13", quick, "md"); err != nil {
		t.Fatal(err)
	}
	if out := buf.String(); !strings.HasPrefix(out, "### R13") || !strings.Contains(out, "\n| --- | --- |") {
		t.Fatalf("not a markdown table:\n%s", out)
	}
}
