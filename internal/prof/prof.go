// Package prof wires the standard runtime/pprof profilers into command-line
// tools. Both cmd/onocsim and cmd/expreport expose the same
// -cpuprofile/-memprofile contract; this package is that contract's single
// implementation.
package prof

import (
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
)

// cpuActive tracks whether a CPU profile started through Start is running.
var cpuActive atomic.Bool

// CPUActive reports whether a CPU profile started through Start is currently
// collecting samples. Hot loops consult it before attaching pprof labels:
// label bookkeeping allocates per call, and the benchmark of record holds
// unprofiled runs to an allocation bound (allocs_per_work), so the labels are
// applied only when a profile is there to read them.
func CPUActive() bool { return cpuActive.Load() }

// Start begins CPU profiling (when cpuPath is non-empty) and arranges a heap
// snapshot at stop time (when memPath is non-empty). The returned stop
// function must run before process exit so the profile files are complete;
// it is always non-nil and safe to call even when Start failed or both paths
// are empty.
func Start(cpuPath, memPath string) (stop func() error, err error) {
	noop := func() error { return nil }
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return noop, err
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return noop, err
		}
		cpuActive.Store(true)
	}
	return func() error {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			cpuActive.Store(false)
			if err := cpuFile.Close(); err != nil {
				return err
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				return err
			}
			runtime.GC() // settle live-heap accounting before the snapshot
			if err := pprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return err
			}
			return f.Close()
		}
		return nil
	}, nil
}
