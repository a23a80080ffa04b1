package onocsim

import (
	"fmt"
	"testing"

	"onocsim/internal/workload"
)

// TestCaptureGapStartsAtLastDependency holds every captured event to the
// recorder's gap rule: an event with dependencies is injected Gap cycles
// after the last of them arrived, so RefInject − Gap equals the largest
// RefArrive among its Deps. A send that kept a dependency list its caller
// later reused would cite edges other than the ones its DepResolved was
// taken from, and break the equality.
func TestCaptureGapStartsAtLastDependency(t *testing.T) {
	for _, kernel := range workload.KernelNames() {
		for _, kind := range []NetworkKind{IdealNet, Electrical, Optical} {
			for _, cores := range []int{16, 64} {
				cfg := smallConfig()
				cfg.Workload.Kernel = kernel
				cfg.System.Cores = cores
				tr, _, err := uncached.CaptureTraceContext(bg, cfg, kind)
				if err != nil {
					t.Fatalf("%s/%s/%d: %v", kernel, kind, cores, err)
				}
				bad := 0
				for _, e := range tr.Events {
					if len(e.Deps) == 0 {
						continue
					}
					last := Tick(-1)
					for _, d := range e.Deps {
						last = max(last, tr.Events[d.On-1].RefArrive)
					}
					if e.RefInject-e.Gap != last {
						if bad == 0 {
							t.Errorf("%s/%s/%d: event %d injected at %d with gap %d, last dependency arrived at %d",
								kernel, kind, cores, e.ID, e.RefInject, e.Gap, last)
						}
						bad++
					}
				}
				if bad > 0 {
					t.Errorf("%s/%s/%d: %d of %d events violate the gap rule", kernel, kind, cores, bad, len(tr.Events))
				}
			}
		}
	}
}

// TestCaptureAllocationsIndependentOfLength is the capture's allocation gate:
// a message costs no heap object of its own, so a longer run of the same
// kernel may add at most 0.25 allocations per event it adds (chunks of the
// recorder's arena, growth of the event vector and of the CPU model's free
// lists). A per-message payload, closure or dependency list costs 1 or more.
func TestCaptureAllocationsIndependentOfLength(t *testing.T) {
	for _, kernel := range []string{"stencil", "reduce"} {
		for _, kind := range []NetworkKind{IdealNet, Electrical} {
			var allocs [2]float64
			var events [2]int
			for i, iters := range []int{2, 4} {
				cfg := smallConfig()
				cfg.Workload.Kernel = kernel
				cfg.System.Cores = 64
				cfg.Workload.Iterations = iters
				allocs[i] = testing.AllocsPerRun(1, func() {
					tr, _, err := uncached.CaptureTraceContext(bg, cfg, kind)
					if err != nil {
						t.Fatal(err)
					}
					events[i] = len(tr.Events)
				})
			}
			name := fmt.Sprintf("%s/%s", kernel, kind)
			if events[1] <= events[0] {
				t.Fatalf("%s: 4 iterations capture %d events, no more than 2 do (%d)", name, events[1], events[0])
			}
			per := (allocs[1] - allocs[0]) / float64(events[1]-events[0])
			t.Logf("%s: %.0f allocations for %d events, %.0f for %d: %.3f per added event", name, allocs[0], events[0], allocs[1], events[1], per)
			if per > 0.25 {
				t.Errorf("%s: %.3f allocations per added event, want at most 0.25", name, per)
			}
		}
	}
}

// TestCaptureAllocationsIndependentOfCores is the capture's construction
// gate: a chip's cores, L1s, banks and L2 banks are one slab per kind, its
// directory entries and sharer sets come from chunks, and a kernel's
// programs share one op slab, so a capture on 64 cores may allocate at most
// perCore more objects per added core than the same capture on 16 (≈ 3.5–4.4
// here: barrier edge lists, lock-step request queues and the recorder grow
// with the chip). A structure that allocates once per core, bank or touched
// line again costs several per added core; before the slabs it was 31–43.
func TestCaptureAllocationsIndependentOfCores(t *testing.T) {
	const perCore = 8.0
	for _, kernel := range []string{"stencil", "lu"} {
		for _, kind := range []NetworkKind{IdealNet, Electrical} {
			var allocs [2]float64
			coreCounts := [2]int{16, 64}
			for i, cores := range coreCounts {
				cfg := smallConfig()
				cfg.Workload.Kernel = kernel
				cfg.System.Cores = cores
				allocs[i] = testing.AllocsPerRun(1, func() {
					if _, _, err := uncached.CaptureTraceContext(bg, cfg, kind); err != nil {
						t.Fatal(err)
					}
				})
			}
			name := fmt.Sprintf("%s/%s", kernel, kind)
			per := (allocs[1] - allocs[0]) / float64(coreCounts[1]-coreCounts[0])
			t.Logf("%s: %.0f allocations at %d cores, %.0f at %d: %.2f per added core", name, allocs[0], coreCounts[0], allocs[1], coreCounts[1], per)
			if per > perCore {
				t.Errorf("%s: %.2f allocations per added core, want at most %v", name, per, perCore)
			}
		}
	}
}

// TestCoupledReplayAllocationsIndependentOfLength holds a coupled replay's
// allocations to a handful per replay, not per event: its reverse-dependency
// index is one flat array (the one overlapped correction rounds build), and
// the fabric's messages and packets come from pooled blocks. A longer trace
// costs at most 0.05 allocations per added event, on the ideal fabric, the
// mesh and the crossbar.
func TestCoupledReplayAllocationsIndependentOfLength(t *testing.T) {
	for _, kind := range []NetworkKind{IdealNet, Electrical, Optical} {
		var allocs [2]float64
		var events [2]int
		for i, iters := range []int{2, 4} {
			cfg := smallConfig()
			cfg.System.Cores = 64
			cfg.Workload.Iterations = iters
			tr, _, err := uncached.CaptureTraceContext(bg, cfg, IdealNet)
			if err != nil {
				t.Fatal(err)
			}
			events[i] = len(tr.Events)
			allocs[i] = testing.AllocsPerRun(2, func() {
				if _, err := uncached.RunCoupledReplayContext(bg, cfg, tr, kind); err != nil {
					t.Fatal(err)
				}
			})
		}
		per := (allocs[1] - allocs[0]) / float64(events[1]-events[0])
		t.Logf("%s: %.0f allocations for %d events, %.0f for %d: %.4f per added event", kind, allocs[0], events[0], allocs[1], events[1], per)
		if per > 0.05 {
			t.Errorf("%s: %.4f allocations per added event, want at most 0.05", kind, per)
		}
	}
}
