package trace

import (
	"fmt"

	"onocsim/internal/sim"
)

// This file provides the what-if transformation over captured traces. It is
// the reason trace-based methodologies pay for themselves: one expensive
// capture supports a family of derived studies (faster or slower cores) with
// no front-end re-run. The transform returns a fresh validated trace and
// never mutates its input.

// ScaleGapsWhere returns a copy of the trace with the compute/service gap of
// every event matching pred multiplied by factor (rounded to cycles, floored
// at zero), leaving the rest untouched. factor < 1 models faster cores
// relative to the network; factor > 1 slower ones. The canonical use scales
// core-compute gaps (request-kind events) while preserving memory/directory
// service times, which is what a core-frequency what-if physically means; the
// R14 experiment validates predictions from scaled traces against real
// re-captures.
func (t *Trace) ScaleGapsWhere(factor float64, pred func(*Event) bool) (*Trace, error) {
	if factor < 0 {
		return nil, fmt.Errorf("trace: negative gap scale %g", factor)
	}
	if pred == nil {
		return nil, fmt.Errorf("trace: nil event predicate")
	}
	out := t.clone()
	for i := range out.Events {
		if !pred(&out.Events[i]) {
			continue
		}
		g := sim.Tick(float64(out.Events[i].Gap) * factor)
		if g < 0 {
			g = 0
		}
		out.Events[i].Gap = g
	}
	// Reference timestamps no longer describe this trace; rebuild them
	// with a conservative self-consistent schedule (inject = dependency
	// readiness, arrive = recorded reference latency) so the transformed
	// trace still validates and naive replay stays meaningful.
	out.rebuildReferenceTimes(t)
	out.Workload = fmt.Sprintf("%s(gaps×%g)", t.Workload, factor)
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("trace: gap scaling produced invalid trace: %w", err)
	}
	return out, nil
}

// rebuildReferenceTimes recomputes RefInject/RefArrive/RefMakespan for a
// transformed trace, preserving each event's original reference latency but
// re-deriving injection times from the (possibly modified) gaps and the
// dependency DAG.
func (t *Trace) rebuildReferenceTimes(orig *Trace) {
	arrive := make([]sim.Tick, len(t.Events))
	var maxArr, origMaxArr sim.Tick
	for i := range t.Events {
		e := &t.Events[i]
		var ready sim.Tick
		for _, d := range e.Deps {
			if a := arrive[int(d.On)-1]; a > ready {
				ready = a
			}
		}
		lat := orig.Events[i].RefArrive - orig.Events[i].RefInject
		e.RefInject = ready + e.Gap
		e.RefArrive = e.RefInject + lat
		arrive[i] = e.RefArrive
		if e.RefArrive > maxArr {
			maxArr = e.RefArrive
		}
		if orig.Events[i].RefArrive > origMaxArr {
			origMaxArr = orig.Events[i].RefArrive
		}
	}
	tail := orig.RefMakespan - origMaxArr
	if tail < 0 {
		tail = 0
	}
	t.RefMakespan = maxArr + tail
}

// clone deep-copies the trace.
func (t *Trace) clone() *Trace {
	out := &Trace{
		Nodes:       t.Nodes,
		Workload:    t.Workload,
		RefMakespan: t.RefMakespan,
		Events:      make([]Event, len(t.Events)),
	}
	copy(out.Events, t.Events)
	for i := range out.Events {
		if len(t.Events[i].Deps) > 0 {
			out.Events[i].Deps = append([]Dep(nil), t.Events[i].Deps...)
		}
	}
	return out
}
