package workload

import (
	"fmt"
	"io"
	"os"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// Huge-trace generation: a deterministic streaming trace generator that
// writes through trace.Writer without ever materializing events, so traces
// far larger than memory can be produced for the out-of-core replay path
// (`tracegen -huge`). The generated traces carry realistic structure for the
// streaming engines to chew on: per-source causal chains (every event
// program-depends on its source's previous event, bounding the dependency
// span by the node count), occasional cross-source causal edges, and
// capture-order reference timestamps (RefInject nondecreasing in ID, as a
// real recorder produces).

// HugeSpec parameterizes the generator. The zero value is invalid; use
// DefaultHugeSpec as a base.
type HugeSpec struct {
	// Nodes is the endpoint count; must be ≥ 2.
	Nodes int
	// Events is the total event count; must be ≥ 1.
	Events int
	// Pattern selects destinations: "uniform", "hotspot" (half the traffic
	// converges on node 0), or "neighbor" (ring next-neighbor).
	Pattern string
	// Bytes is the mean payload size; actual sizes vary ±50%.
	Bytes int
	// Gap is the mean think time between a source's events, in cycles.
	Gap int
	// Seed makes the stream reproducible: equal specs yield byte-identical
	// traces.
	Seed uint64
}

// DefaultHugeSpec is a reasonable 16-node uniform workload shape.
func DefaultHugeSpec() HugeSpec {
	return HugeSpec{Nodes: 16, Events: 1 << 20, Pattern: "uniform", Bytes: 64, Gap: 20, Seed: 1}
}

func (s HugeSpec) validate() error {
	if s.Nodes < 2 {
		return fmt.Errorf("workload: huge trace needs ≥2 nodes, have %d", s.Nodes)
	}
	if s.Events < 1 {
		return fmt.Errorf("workload: huge trace needs ≥1 events, have %d", s.Events)
	}
	if s.Bytes < 1 {
		return fmt.Errorf("workload: huge trace needs bytes ≥1, have %d", s.Bytes)
	}
	if s.Gap < 0 {
		return fmt.Errorf("workload: huge trace needs gap ≥0, have %d", s.Gap)
	}
	switch s.Pattern {
	case "uniform", "hotspot", "neighbor":
		return nil
	default:
		return fmt.Errorf("workload: unknown huge-trace pattern %q (want uniform, hotspot, or neighbor)", s.Pattern)
	}
}

// workloadName labels the generated trace for reports.
func (s HugeSpec) workloadName() string {
	return fmt.Sprintf("huge-%s-n%d", s.Pattern, s.Nodes)
}

// hugeState is the O(nodes) generator state: per-source last event and
// clock. Nothing grows with the event count.
type hugeState struct {
	spec   HugeSpec
	rng    sim.RNG
	lastID []trace.EventID // per source, 0 = none yet
	nextAt []sim.Tick      // per source, earliest next injection
	clock  sim.Tick        // global nondecreasing injection clock
	deps   [2]trace.Dep    // reusable dep buffer
}

func newHugeState(spec HugeSpec) *hugeState {
	return &hugeState{
		spec:   spec,
		rng:    sim.NewStream(spec.Seed, "huge-trace"),
		lastID: make([]trace.EventID, spec.Nodes),
		nextAt: make([]sim.Tick, spec.Nodes),
	}
}

// dst picks a destination per the spec's pattern.
func (g *hugeState) dst(src int) int {
	switch g.spec.Pattern {
	case "hotspot":
		if src != 0 && g.rng.Bernoulli(0.5) {
			return 0
		}
	case "neighbor":
		return (src + 1) % g.spec.Nodes
	}
	for {
		d := g.rng.Intn(g.spec.Nodes)
		if d != src {
			return d
		}
	}
}

// next fills *e with event id. Sources take turns round-robin with jitter,
// so RefInject is nondecreasing while spans between an event and its
// program-order predecessor stay ≈ the node count.
func (g *hugeState) next(e *trace.Event, id trace.EventID) {
	src := g.rng.Intn(g.spec.Nodes)
	gap := sim.Tick(1 + g.rng.Intn(2*g.spec.Gap+1))
	size := g.spec.Bytes/2 + g.rng.Intn(g.spec.Bytes+1)
	if size < 1 {
		size = 1
	}
	dst := g.dst(src)

	// Capture-order clock: injections are globally nondecreasing, each
	// source also respects its own previous event.
	at := g.clock + sim.Tick(g.rng.Intn(4))
	if t := g.nextAt[src]; t > at {
		at = t
	}
	g.clock = at

	deps := g.deps[:0]
	if g.lastID[src] != trace.None {
		deps = append(deps, trace.Dep{On: g.lastID[src], Class: trace.DepProgram})
	}
	// Occasional cross-source causality: depend on the destination's last
	// event, exercising dep edges that span several sources' interleavings.
	if other := g.lastID[dst]; other != trace.None && other != g.lastID[src] && g.rng.Bernoulli(0.25) {
		deps = append(deps, trace.Dep{On: other, Class: trace.DepCausal})
	}

	lat := sim.Tick(5 + g.rng.Intn(30))
	*e = trace.Event{
		ID:        id,
		Src:       src,
		Dst:       dst,
		Bytes:     size,
		Class:     noc.ClassRequest,
		Kind:      trace.KindData,
		Gap:       gap,
		Deps:      deps,
		RefInject: at,
		RefArrive: at + lat,
	}
	g.lastID[src] = id
	g.nextAt[src] = at + gap
}

// WriteHuge streams a generated trace to w with O(nodes) resident memory.
// It returns the trace's reference makespan.
func WriteHuge(w io.Writer, spec HugeSpec) (sim.Tick, error) {
	if err := spec.validate(); err != nil {
		return 0, err
	}
	// The header needs the makespan before any event is written, and the
	// format is length-prefixed anyway, so the generator runs twice from the
	// same seed: a dry pass for the makespan, a real pass for the bytes.
	// Generation is pure arithmetic — both passes stream in O(nodes).
	dry := newHugeState(spec)
	var e trace.Event
	var maxArr sim.Tick
	for i := 0; i < spec.Events; i++ {
		dry.next(&e, trace.EventID(i+1))
		if e.RefArrive > maxArr {
			maxArr = e.RefArrive
		}
	}
	makespan := maxArr + sim.Tick(spec.Gap)

	gen := newHugeState(spec)
	sw, err := trace.NewWriter(w, trace.Meta{
		Nodes:       spec.Nodes,
		Workload:    spec.workloadName(),
		RefMakespan: makespan,
		NumEvents:   spec.Events,
	})
	if err != nil {
		return 0, err
	}
	for i := 0; i < spec.Events; i++ {
		gen.next(&e, trace.EventID(i+1))
		if err := sw.Append(&e); err != nil {
			return 0, err
		}
	}
	return makespan, sw.Close()
}

// WriteHugeFile streams a generated trace to a file on disk.
func WriteHugeFile(path string, spec HugeSpec) (sim.Tick, error) {
	f, err := os.Create(path)
	if err != nil {
		return 0, fmt.Errorf("workload: %w", err)
	}
	makespan, err := WriteHuge(f, spec)
	if err != nil {
		f.Close()
		return 0, err
	}
	return makespan, f.Close()
}
