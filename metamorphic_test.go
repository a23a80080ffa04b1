package onocsim

import (
	"reflect"
	"slices"
	"testing"

	"onocsim/internal/core"
	"onocsim/internal/onoc"
	"onocsim/internal/trace"
	"onocsim/internal/workload"
)

// TestReplayMetamorphicRelations checks three relations that PAPER.md's
// replay rule, inject(e) = max(dependency arrivals) + gap, implies between
// runs of one trace, each exactly. Every kernel's ideal capture is replayed on
// every fixpoint variant, and for the time shift also on the torus and on the
// mesh under west-first routing.
//
//   - Time shift: adding C to the gap of every root event (one with no
//     dependencies) moves every coupled-replay injection and arrival by
//     exactly C. The fabrics carry no clock-dependent state except the MWSR
//     token, which circulates from cycle 1 whether or not traffic waits: on
//     MWSR and the hybrid the relation holds for C a multiple of the token's
//     revolution, nodes × onoc.TokenHopCycles, and is checked only there.
//     West-first routes by downstream credits, which also move only with
//     traffic.
//   - Time shift, every round: the same delay moves every round of a
//     zero-load-seeded correction (makespan tolerance off, rounds overlapped
//     through core.Correct's spare), so each Iteration keeps its Delta and
//     MeanLatency while its Makespan and Cycles move by C, and Final's
//     vectors move by C.
//   - Redundant edge: an edge from an event to one it already depends on
//     transitively arrives no later than the direct dependency it goes
//     through, so neither the coupled replay nor a zero-load-seeded
//     correction (makespan tolerance off) changes at all.
//   - Symmetry: renaming every node by a permutation the fabric cannot tell
//     apart from the identity leaves the coupled replay and every round of a
//     zero-load correction exactly as they were. The ideal fabric treats all
//     nodes alike, so any permutation qualifies (here i → 5i+3 mod nodes).
//     The torus does not hold it under translation: a half-ring tie's
//     direction and a packet's dateline VC both depend on where the
//     wraparound links sit (ROADMAP item 22).
func TestReplayMetamorphicRelations(t *testing.T) {
	for _, kernel := range workload.KernelNames() {
		cfg := smallConfig()
		cfg.Workload.Kernel = kernel
		cfg.SCTM.MakespanTolerance = 0
		tr, _, err := uncached.CaptureTraceContext(bg, cfg, IdealNet)
		if err != nil {
			t.Fatal(err)
		}
		redundant := withRedundantEdge(t, tr)
		revolution := cfg.System.Cores * int(onoc.TokenHopCycles)
		for _, v := range fixpointVariants {
			cfg := cfg
			if v.swmr {
				cfg.Optical.Architecture = "swmr"
			}
			t.Run(kernel+"/"+v.name, func(t *testing.T) {
				t.Parallel()
				coupled := func(tr *Trace) ReplayResult {
					t.Helper()
					res, err := uncached.RunCoupledReplayContext(bg, cfg, tr, v.kind)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				base := coupled(tr)
				tokenPhased := (v.kind == Optical && !v.swmr) || v.kind == Hybrid
				for _, c := range []Tick{1, 7, 16, 32} {
					if tokenPhased && int(c)%revolution != 0 {
						continue
					}
					checkShifted(t, c, base, coupled(shiftRoots(tr, c)))
				}
				checkShiftedRounds(t, cfg, v.kind, tr, revolution, tokenPhased)

				if v.kind == IdealNet {
					checkRelabelled(t, cfg, v.kind, tr, func(i int) int { return (5*i + 3) % cfg.System.Cores })
				}
				if got := coupled(redundant); !reflect.DeepEqual(got, base) {
					t.Errorf("a redundant edge changed the coupled replay: makespan %d, was %d", got.Makespan, base.Makespan)
				}
				want, err := uncached.RunSelfCorrectionContext(bg, cfg, tr, v.kind)
				if err != nil {
					t.Fatal(err)
				}
				got, err := uncached.RunSelfCorrectionContext(bg, cfg, redundant, v.kind)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("a redundant edge changed the correction: %d rounds to makespan %d, was %d to %d",
						len(got.Iterations), got.Final.Makespan, len(want.Iterations), want.Final.Makespan)
				}
			})
		}
		for _, m := range []struct {
			name, topology, routing string
			vcs                     int
		}{{"torus", "torus", "xy", 6}, {"westfirst", "mesh", "westfirst", cfg.Mesh.VCs}} {
			cfg := cfg
			cfg.Mesh.Topology, cfg.Mesh.Routing, cfg.Mesh.VCs = m.topology, m.routing, m.vcs
			t.Run(kernel+"/"+m.name, func(t *testing.T) {
				t.Parallel()
				coupled := func(tr *Trace) ReplayResult {
					t.Helper()
					res, err := uncached.RunCoupledReplayContext(bg, cfg, tr, Electrical)
					if err != nil {
						t.Fatal(err)
					}
					return res
				}
				base := coupled(tr)
				for _, c := range []Tick{1, 7, 16, 32} {
					checkShifted(t, c, base, coupled(shiftRoots(tr, c)))
				}
				checkShiftedRounds(t, cfg, Electrical, tr, revolution, false)
			})
		}
	}
}

// checkShifted fails t unless every injection and arrival of shifted is that
// of base plus c.
func checkShifted(t *testing.T, c Tick, base, shifted ReplayResult) {
	t.Helper()
	for i := range base.Arrive {
		if shifted.Inject[i] != base.Inject[i]+c || shifted.Arrive[i] != base.Arrive[i]+c {
			t.Fatalf("roots delayed by %d: event %d injected %d and arrived %d, want %d and %d",
				c, i+1, shifted.Inject[i], shifted.Arrive[i], base.Inject[i]+c, base.Arrive[i]+c)
		}
	}
}

// overlappedCorrection returns a zero-load correction on kind whose every
// round after the first overlaps the one before it.
func overlappedCorrection(t *testing.T, cfg Config, kind NetworkKind) func(tr *Trace) CorrectionResult {
	t.Helper()
	factory, err := NetworkFactory(cfg, kind)
	if err != nil {
		t.Fatal(err)
	}
	return func(tr *Trace) CorrectionResult {
		t.Helper()
		sp := &spareSlots{every: 1}
		res, _, err := core.Correct(bg, factory, tr, cfg.SCTM, 0, nil, nil, nil, sp.spare)
		if err != nil {
			t.Fatal(err)
		}
		sp.check(t)
		return res
	}
}

// checkRelabelled fails t unless renaming every node of tr by perm leaves the
// coupled replay on kind and an overlapped zero-load correction's every
// Iteration and Final exactly as they were, DeepEqual.
func checkRelabelled(t *testing.T, cfg Config, kind NetworkKind, tr *Trace, perm func(int) int) {
	t.Helper()
	moved := copyTrace(tr)
	for i := range moved.Events {
		e := &moved.Events[i]
		e.Src, e.Dst = perm(e.Src), perm(e.Dst)
	}
	if reflect.DeepEqual(moved.Events, tr.Events) {
		t.Fatal("the permutation moved no event")
	}
	want, err := uncached.RunCoupledReplayContext(bg, cfg, tr, kind)
	if err != nil {
		t.Fatal(err)
	}
	got, err := uncached.RunCoupledReplayContext(bg, cfg, moved, kind)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("relabelled nodes changed the coupled replay: makespan %d, was %d", got.Makespan, want.Makespan)
	}
	correct := overlappedCorrection(t, cfg, kind)
	wantSC, gotSC := correct(tr), correct(moved)
	if !reflect.DeepEqual(gotSC.Iterations, wantSC.Iterations) || !reflect.DeepEqual(gotSC.Final, wantSC.Final) {
		t.Errorf("relabelled nodes changed the correction:\n got %+v\nwant %+v", gotSC.Iterations, wantSC.Iterations)
	}
}

// checkShiftedRounds fails t unless delaying tr's root events by C moves
// every round of an overlapped zero-load correction by C: for C 1, 7 and one
// token revolution, or only the revolution when the fabric is token-phased.
func checkShiftedRounds(t *testing.T, cfg Config, kind NetworkKind, tr *Trace, revolution int, tokenPhased bool) {
	t.Helper()
	correct := overlappedCorrection(t, cfg, kind)
	base := correct(tr)
	for _, c := range []Tick{1, 7, Tick(revolution)} {
		if tokenPhased && int(c)%revolution != 0 {
			continue
		}
		got := correct(shiftRoots(tr, c))
		if len(got.Iterations) != len(base.Iterations) || got.Converged != base.Converged {
			t.Fatalf("roots delayed by %d: %d rounds (converged %v), undelayed %d (%v)", c, len(got.Iterations), got.Converged, len(base.Iterations), base.Converged)
		}
		for r, it := range base.Iterations {
			it.Makespan += c
			it.Cycles += c
			if got.Iterations[r] != it {
				t.Fatalf("roots delayed by %d: round %d is %+v, want %+v", c, r, got.Iterations[r], it)
			}
		}
		if want := base.TotalCycles + Tick(len(base.Iterations))*c; got.TotalCycles != want {
			t.Fatalf("roots delayed by %d: %d total cycles, want %d", c, got.TotalCycles, want)
		}
		checkShifted(t, c, base.Final, got.Final)
	}
}

// copyTrace deep-copies tr's events, dependency lists included.
func copyTrace(tr *Trace) *Trace {
	out := *tr
	out.CaptureKey = ""
	out.Events = slices.Clone(tr.Events)
	for i := range out.Events {
		out.Events[i].Deps = slices.Clone(tr.Events[i].Deps)
	}
	return &out
}

// shiftRoots returns tr with every root event's gap lengthened by c.
func shiftRoots(tr *Trace, c Tick) *Trace {
	out := copyTrace(tr)
	for i := range out.Events {
		if len(out.Events[i].Deps) == 0 {
			out.Events[i].Gap += c
		}
	}
	return out
}

// withRedundantEdge returns tr with one edge added: from the first event that
// depends on an event d, which depends on an event the first does not cite,
// to that event.
func withRedundantEdge(t *testing.T, tr *Trace) *Trace {
	t.Helper()
	out := copyTrace(tr)
	for i := range out.Events {
		e := &out.Events[i]
		for _, d := range e.Deps {
			for _, dd := range tr.Event(d.On).Deps {
				if !slices.ContainsFunc(e.Deps, func(x trace.Dep) bool { return x.On == dd.On }) {
					e.Deps = append(e.Deps, trace.Dep{On: dd.On, Class: d.Class})
					return out
				}
			}
		}
	}
	t.Fatalf("%s: no event has a dependency two edges away", tr.Workload)
	return nil
}
