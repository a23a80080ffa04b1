package onocsim

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"onocsim/internal/core"
	"onocsim/internal/workload"
)

// spareSlots is a core.Correct spare that grants a slot on every call
// (every = 1) or on every other one (every = 2), counting grants and
// releases. Every other grant mixes all three ways a round can start: beside
// its predecessor on a spare, beside it on the call's own slot, and after it,
// with its schedule derived in one pass.
type spareSlots struct {
	every, calls, granted int
	released              atomic.Int64
}

func (s *spareSlots) spare() func() {
	if s.calls++; s.calls%s.every != 0 {
		return nil
	}
	s.granted++
	return func() { s.released.Add(1) }
}

// check fails t unless a slot was granted and each grant was released
// exactly once.
func (s *spareSlots) check(t *testing.T) {
	t.Helper()
	if s.granted == 0 {
		t.Errorf("no spare slot was granted: no round overlapped")
	}
	if got := s.released.Load(); got != int64(s.granted) {
		t.Errorf("%d spare slots granted, %d releases", s.granted, got)
	}
}

// settleGoroutines fails t unless the goroutine count falls back to base: a
// goroutine that has closed its done channel may still be on its way out.
func settleGoroutines(t *testing.T, base int) {
	t.Helper()
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the correction, %d before", runtime.NumGoroutine(), base)
		}
	}
}

// overlapVariants are the fixpoint variants plus the torus and the mesh under
// west-first routing, each as the config change that selects it.
func overlapVariants() []struct {
	name string
	kind NetworkKind
	set  func(*Config)
} {
	type variant = struct {
		name string
		kind NetworkKind
		set  func(*Config)
	}
	var out []variant
	for _, v := range fixpointVariants {
		swmr := v.swmr
		out = append(out, variant{v.name, v.kind, func(c *Config) {
			if swmr {
				c.Optical.Architecture = "swmr"
			}
		}})
	}
	return append(out,
		variant{"torus", Electrical, func(c *Config) { c.Mesh.Topology, c.Mesh.VCs = "torus", 6 }},
		variant{"westfirst", Electrical, func(c *Config) { c.Mesh.Routing = "westfirst" }})
}

// TestPipelinedCorrectionMatchesSerial holds a correction whose rounds
// overlap (forced through core.Correct's spare) to the serial one, DeepEqual
// on the whole CorrectionResult: every Iteration, Final's vectors and
// statistics, TotalCycles, ReplayedEvents and Converged. It covers every
// kernel × the fixpoint variants, the torus and west-first × both seeds ×
// makespan tolerance off and at its default (which exits early, discarding
// the round running ahead), with a spare on every call and on every other
// one. Then, on the mesh and the MWSR crossbar, it parks an overlapped
// correction at every round boundary and resumes it, overlapped, to the
// uninterrupted serial result. After each case no goroutine is left and
// every spare slot was released once.
func TestPipelinedCorrectionMatchesSerial(t *testing.T) {
	base := runtime.NumGoroutine()
	for _, kernel := range workload.KernelNames() {
		cfg := smallConfig()
		cfg.Workload.Kernel = kernel
		tr, _, err := uncached.CaptureTraceContext(bg, cfg, IdealNet)
		if err != nil {
			t.Fatal(err)
		}
		for _, v := range overlapVariants() {
			for _, seed := range []string{"zeroload", "coupled"} {
				for _, tol := range []float64{0, cfg.SCTM.MakespanTolerance} {
					cfg := cfg
					v.set(&cfg)
					cfg.SCTM.Seed, cfg.SCTM.MakespanTolerance = seed, tol
					factory, err := NetworkFactory(cfg, v.kind)
					if err != nil {
						t.Fatal(err)
					}
					name := fmt.Sprintf("%s/%s/%s/tol=%g", kernel, v.name, seed, tol)
					want, _, err := core.Correct(bg, factory, tr, cfg.SCTM, 0, nil, nil, nil, nil)
					if err != nil {
						t.Fatalf("%s: serial: %v", name, err)
					}
					for _, every := range []int{1, 2} {
						sp := &spareSlots{every: every}
						got, _, err := core.Correct(bg, factory, tr, cfg.SCTM, 0, nil, nil, nil, sp.spare)
						if err != nil {
							t.Fatalf("%s: overlapped: %v", name, err)
						}
						if !reflect.DeepEqual(got, want) {
							t.Fatalf("%s, spare every %d: overlapped correction (%d rounds, makespan %d) differs from serial (%d rounds, makespan %d)",
								name, every, len(got.Iterations), got.Final.Makespan, len(want.Iterations), want.Final.Makespan)
						}
						if len(want.Iterations) > 1 {
							sp.check(t)
						}
						settleGoroutines(t, base)
					}
				}
			}
		}
	}

	for _, kind := range []NetworkKind{Electrical, Optical} {
		cfg := smallConfig()
		cfg.SCTM.MakespanTolerance = 0
		cfg.SCTM.MaxIterations = 6
		tr, _, err := uncached.CaptureTraceContext(bg, cfg, IdealNet)
		if err != nil {
			t.Fatal(err)
		}
		factory, err := NetworkFactory(cfg, kind)
		if err != nil {
			t.Fatal(err)
		}
		full, _, err := core.Correct(bg, factory, tr, cfg.SCTM, 0, nil, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		// parkAfter runs the correction with ctx cancelled once b rounds
		// are done.
		parkAfter := func(b int, spare func() func()) (CorrectionResult, *core.ParkState, error) {
			ctx, cancel := context.WithCancel(bg)
			defer cancel()
			if b == 0 {
				cancel()
			}
			rounds := 0
			return core.Correct(ctx, factory, tr, cfg.SCTM, 0, nil, nil, func() {
				if rounds++; rounds == b {
					cancel()
				}
			}, spare)
		}
		for b := range len(full.Iterations) {
			name := fmt.Sprintf("%s park after %d", kind, b)
			wantPart, _, err := parkAfter(b, nil)
			if !errors.Is(err, ErrParked) {
				t.Fatalf("%s: serial: %v", name, err)
			}
			sp := &spareSlots{every: 1}
			part, state, err := parkAfter(b, sp.spare)
			if !errors.Is(err, ErrParked) || len(part.Iterations) != b {
				t.Fatalf("%s: overlapped: %d rounds, %v", name, len(part.Iterations), err)
			}
			if !reflect.DeepEqual(part, wantPart) {
				t.Fatalf("%s: overlapped parked result differs from serial", name)
			}
			got, _, err := core.Correct(bg, factory, tr, cfg.SCTM, 0, nil, state, nil, sp.spare)
			if err != nil {
				t.Fatalf("%s: resume: %v", name, err)
			}
			if !reflect.DeepEqual(got, full) {
				t.Fatalf("%s: resumed overlapped correction differs from the uninterrupted serial one", name)
			}
			if b < len(full.Iterations)-1 {
				sp.check(t)
			}
			settleGoroutines(t, base)
		}
	}
}
