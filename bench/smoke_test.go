package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"reflect"
	"testing"
)

// benchmarkFile is the part of BENCHMARK.json the program has to agree with.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}
	return b
}

// BENCHMARK.json names what the program emits; the program's tables are the
// source, and this holds the file to them.
func TestBenchmarkFileMatchesTheProgram(t *testing.T) {
	b := readBenchmarkFile(t)
	if !reflect.DeepEqual(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end in BENCHMARK.json differs from the endToEnd table:\n file %+v\n code %+v", b.EndToEnd, endToEnd)
	}
	if !reflect.DeepEqual(b.PerLayer, perLayer) {
		t.Errorf("per_layer in BENCHMARK.json differs from the perLayer table")
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames) {
		t.Errorf("workloads %v, program runs %v", names, workloadNames)
	}
}

// The smoke test runs all four workloads, timed and traced, through the code
// path of the benchmark of record at a fraction of its size, so a change to
// the simulator's API that breaks the benchmark fails `go test ./...` rather
// than the next performance change.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload; skipped with -short")
	}
	b := readBenchmarkFile(t)
	golden, err := loadGoldens()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := run(context.Background(), runOpts{
				workload: name, seed: 1, seconds: 0.05, traced: traced, size: smokeSize,
				outDir: t.TempDir(), golden: golden, log: io.Discard,
			})
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d: %v", name, traced, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			specs := b.EndToEnd
			if traced {
				specs = b.PerLayer
			}
			if len(res.Metrics) != len(specs) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", name, traced, len(res.Metrics), len(specs))
			}
			for _, s := range specs {
				m, ok := res.Metrics[s.Name]
				if !ok || math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || m.Unit != s.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v (emitted %v)", name, traced, s.Name, m, ok)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", name, s.Name, m.Value)
				}
			}
			if err := printResult(io.Discard, res, specs); err != nil {
				t.Error(err)
			}
		}
	}
}
