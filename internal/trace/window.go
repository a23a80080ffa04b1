package trace

import (
	"fmt"

	"onocsim/internal/sim"
)

// Streaming trace analysis: everything cmd/traceinfo reports, computed in a
// single decode pass with resident memory bounded by the dependency-span
// window instead of the trace length.
//
// The window invariant: per-event derived state (critical-path finish time,
// chain depth, path length) is retained only for the most recent Window
// events — older state has been retired and cannot be consulted again. A
// dependency edge always points backward, so the invariant holds exactly
// when every edge spans at most Window events. The ring starts small and
// grows (doubling) toward the window as the trace fills it, so a generous
// window costs only what the trace actually uses; an edge spanning farther
// back than the window is rejected with an error naming the span the trace
// needs — never silently mis-analyzed and never deadlocked. Retirement is
// what makes the pass out-of-core: state is discarded the moment the stream
// moves one window past it, exactly like the replay engines retire
// dependency state for completed messages.

// DefaultWindow is the dependency-span window streaming consumers use when
// none is chosen: 64Ki events (≈1 MiB of analysis state). Captured traces'
// spans are bounded by the protocol's outstanding-transaction window, and
// generated huge traces chain per source, so real spans are far smaller.
const DefaultWindow = 1 << 16

// Unbounded disables retirement: the window grows with the trace, so no
// span ever errors, at the cost of O(events) analysis state (still an order
// of magnitude below materializing the events themselves).
const Unbounded = -1

// StreamOptions tunes the streaming analyses.
type StreamOptions struct {
	// Window is the dependency-span window, in events; 0 selects
	// DefaultWindow, Unbounded (-1) disables retirement.
	Window int
	// Paths additionally records one predecessor link per event — O(events)
	// memory — so Analysis.CriticalPath.Events can be reconstructed. Leave
	// it false for constant-memory summaries of huge traces.
	Paths bool
}

// CriticalPath is the longest weighted path through the dependency DAG, where
// each event contributes its gap plus its latency. It is the trace's
// intrinsic lower bound on makespan for any fabric achieving those latencies,
// and the path itself names the messages that gate the application — the
// first thing an architect asks of a trace.
type CriticalPath struct {
	// Length is the total weight in cycles.
	Length sim.Tick
	// Events are the IDs along the path, in dependency order.
	Events []EventID
}

// Analysis is everything one streaming pass computes about a trace.
type Analysis struct {
	// Meta is the trace header.
	Meta Meta
	// Stats matches Trace.ComputeStats exactly.
	Stats Stats
	// CriticalPath is the critical path under the latencies observed on the
	// capture fabric: Length always, Events only when Options.Paths was set.
	CriticalPath CriticalPath
	// CriticalPathEvents is the number of events on the critical path,
	// available even without Options.Paths.
	CriticalPathEvents int
	// DepthHist is, per dependency-chain depth, the number of events at that
	// depth (depth 0 = no dependencies): how serial the communication is.
	DepthHist []int
	// Sends and Recvs are per-node message counts, exposing hotspots.
	Sends, Recvs []int
	// MaxDepSpan is the longest dependency edge observed, in events — the
	// minimum window a streaming consumer of this trace needs.
	MaxDepSpan int
}

// slot is the per-event state retained inside the window.
type slot struct {
	finish sim.Tick // critical-path completion time
	count  int32    // events on the best chain ending here
	depth  int32    // dependency-chain depth
}

// spanWindow is a ring buffer holding the slots of the most recent events.
// Allocation grows lazily: a slot is only ever overwritten once the ring has
// reached the full window, so every event within the window is live.
type spanWindow struct {
	slots   []slot
	horizon int // max live span; <= 0 means unbounded (never retire)
	next    int // index (0-based) of the next event to be added
}

func newSpanWindow(window int) *spanWindow {
	horizon := window
	if horizon == 0 {
		horizon = DefaultWindow
	}
	initial := 1024
	if horizon > 0 && initial > horizon {
		initial = horizon
	}
	return &spanWindow{slots: make([]slot, initial), horizon: horizon}
}

// get returns the slot for event index i (0-based), which the caller
// guarantees satisfies i < next. Spans beyond the horizon reference retired
// state and error.
func (w *spanWindow) get(i int) (*slot, error) {
	if span := w.next - i; w.horizon > 0 && span > w.horizon {
		return nil, fmt.Errorf("trace: dependency span of %d events exceeds the streaming window of %d; rerun with a window of at least %d", span, w.horizon, span)
	}
	return &w.slots[i%len(w.slots)], nil
}

// add returns the slot to fill for the next event. It grows the ring before
// retiring any event that is still within the horizon, so growth — not data
// loss — is what happens when the window is undersized but growable.
func (w *spanWindow) add() *slot {
	if w.next >= len(w.slots) && (w.horizon <= 0 || len(w.slots) < w.horizon) {
		w.grow()
	}
	s := &w.slots[w.next%len(w.slots)]
	w.next++
	return s
}

// grow doubles the ring (capped at the horizon), re-placing live entries at
// their positions modulo the new size.
func (w *spanWindow) grow() {
	size := len(w.slots) * 2
	if w.horizon > 0 && size > w.horizon {
		size = w.horizon
	}
	old := w.slots
	w.slots = make([]slot, size)
	lo := w.next - len(old)
	if lo < 0 {
		lo = 0
	}
	for i := lo; i < w.next; i++ {
		w.slots[i%size] = old[i%len(old)]
	}
}

// StreamAnalyze computes the full traceinfo summary — stats, reference
// critical path, depth histogram, node activity — in one pass over the
// source. With opts.Paths false, resident memory is O(window + nodes +
// depth-histogram), independent of trace length.
//
// The results are identical to Trace.ComputeStats and to the straightforward
// in-memory analyses kept as the test oracle (oracle_test.go): the
// recurrences are the same, evaluated in the same ID order.
func StreamAnalyze(src Source, opts StreamOptions) (*Analysis, error) {
	m := src.Meta()
	it, err := src.Pass()
	if err != nil {
		return nil, err
	}
	defer it.Close()

	an := &Analysis{
		Meta:  m,
		Stats: Stats{RefMakespan: m.RefMakespan},
		Sends: make([]int, m.Nodes),
		Recvs: make([]int, m.Nodes),
	}
	win := newSpanWindow(opts.Window)
	var pred []int32
	if opts.Paths {
		pred = make([]int32, m.NumEvents)
	}
	var hist []int
	bestEnd, bestIdx := sim.Tick(-1), 0
	var bestCount int32
	var e Event
	for {
		ok, err := it.Next(&e)
		if err != nil {
			return nil, err
		}
		if !ok {
			break
		}
		i := int(e.ID) - 1

		// Stats and activity accumulate windowlessly.
		an.Stats.Events++
		an.Stats.Bytes += uint64(e.Bytes)
		if int(e.Kind) < len(an.Stats.ByKind) {
			an.Stats.ByKind[e.Kind]++
		}
		an.Sends[e.Src]++
		an.Recvs[e.Dst]++

		// Critical path and depth need dependency state from the window.
		var ready sim.Tick
		p := int32(-1)
		var pCount, depth int32
		for _, d := range e.Deps {
			if int(d.Class) < len(an.Stats.DepEdges) {
				an.Stats.DepEdges[d.Class]++
			}
			di := int(d.On) - 1
			if span := i - di; span > an.MaxDepSpan {
				an.MaxDepSpan = span
			}
			ds, err := win.get(di)
			if err != nil {
				return nil, err
			}
			if ds.finish > ready {
				ready = ds.finish
				p = int32(di)
				pCount = ds.count
			}
			if ds.depth+1 > depth {
				depth = ds.depth + 1
			}
		}
		s := win.add()
		s.finish = ready + e.Gap + (e.RefArrive - e.RefInject)
		s.count = pCount + 1
		s.depth = depth
		if pred != nil {
			pred[i] = p
		}
		if int(depth) >= len(hist) {
			grown := make([]int, depth+1)
			copy(grown, hist)
			hist = grown
		}
		hist[depth]++
		if s.finish > bestEnd {
			bestEnd, bestIdx, bestCount = s.finish, i, s.count
		}
	}
	if an.Stats.Events != m.NumEvents {
		return nil, fmt.Errorf("trace: stream yielded %d events, header declared %d", an.Stats.Events, m.NumEvents)
	}
	if hist == nil {
		hist = []int{0} // matches DepthHistogram's shape for an empty trace
	}
	an.DepthHist = hist
	if an.Stats.Events > 0 {
		an.CriticalPath.Length = bestEnd
		an.CriticalPathEvents = int(bestCount)
		if pred != nil {
			// Predecessor indices strictly decrease along the chain, so the
			// backward walk reversed is the path in dependency order — and
			// dense IDs mean index+1 is the event ID, no event data needed.
			rev := make([]EventID, 0, bestCount)
			for i := bestIdx; i >= 0; i = int(pred[i]) {
				rev = append(rev, EventID(i+1))
			}
			path := make([]EventID, len(rev))
			for i := range rev {
				path[i] = rev[len(rev)-1-i]
			}
			an.CriticalPath.Events = path
		}
	}
	return an, nil
}
