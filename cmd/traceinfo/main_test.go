package main

import (
	"bytes"
	"context"
	"path/filepath"
	"testing"

	"onocsim"
	"onocsim/internal/trace"
)

func captureToFile(t *testing.T) string {
	t.Helper()
	cfg := onocsim.DefaultConfig()
	cfg.System.Cores = 16
	cfg.Workload.Scale = 4
	cfg.Workload.Iterations = 2
	tr, _, err := onocsim.CaptureTraceContext(context.Background(), cfg, onocsim.IdealNet)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "t.sctm")
	if err := trace.SaveFile(path, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunOnRealTrace(t *testing.T) {
	path := captureToFile(t)
	if err := run(path, false, 0); err != nil {
		t.Fatal(err)
	}
	if err := run(path, true, 0); err != nil {
		t.Fatal(err)
	}
}

func TestRunWindowed(t *testing.T) {
	path := captureToFile(t)
	// Unbounded and tight-but-sufficient windows both succeed; the analysis
	// itself is checked byte-identical in internal/trace's tests.
	if err := run(path, false, trace.Unbounded); err != nil {
		t.Fatal(err)
	}
	if err := run(path, true, trace.DefaultWindow); err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingFile(t *testing.T) {
	if err := run(filepath.Join(t.TempDir(), "absent.sctm"), false, 0); err == nil {
		t.Fatal("missing file accepted")
	}
}

// TestReportByteIdenticalToInMemory pins the streaming report's bytes: the
// same trace analysed and rendered from memory must produce the identical
// output, -v event list included. (That either analysis is right is
// internal/trace's business: window_test.go holds StreamAnalyze to the
// in-memory oracle.)
func TestReportByteIdenticalToInMemory(t *testing.T) {
	path := captureToFile(t)
	tr, err := trace.LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	src, err := trace.NewFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	streamed, err := trace.StreamAnalyze(src, trace.StreamOptions{Paths: true})
	if err != nil {
		t.Fatal(err)
	}
	mem, err := trace.StreamAnalyze(tr, trace.StreamOptions{Paths: true, Window: trace.Unbounded})
	if err != nil {
		t.Fatal(err)
	}

	for _, verbose := range []bool{false, true} {
		var got, want bytes.Buffer
		if err := report(&got, path, streamed, src, verbose); err != nil {
			t.Fatal(err)
		}
		if err := report(&want, path, mem, tr, verbose); err != nil {
			t.Fatal(err)
		}
		if got.String() != want.String() {
			t.Errorf("-v=%v: streaming report diverges from in-memory report:\n--- streaming ---\n%s\n--- in-memory ---\n%s",
				verbose, got.String(), want.String())
		}
	}
}
