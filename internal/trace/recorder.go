package trace

import (
	"fmt"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// Recorder builds a Trace during an execution-driven capture run. The
// protocol layer calls RecordSend when it injects a message (supplying the
// gating events it knows about) and RecordArrive when the message is
// delivered. The recorder computes gaps and reference timestamps.
//
// The recorder is deliberately dumb about *why* dependencies exist — the
// protocol knows; the recorder only enforces the DAG discipline (deps must
// already be recorded, arrivals must be monotone per event).
type Recorder struct {
	nodes  int
	events []Event
}

// NewRecorder starts an empty capture for a system with the given node count.
func NewRecorder(nodes int) *Recorder {
	if nodes < 1 {
		panic(fmt.Sprintf("trace: recorder needs ≥1 node, got %d", nodes))
	}
	return &Recorder{nodes: nodes}
}

// SendInfo describes one injected message to the recorder.
type SendInfo struct {
	Src, Dst int
	Bytes    int
	Class    noc.Class
	Kind     Kind
	// Deps are the gating events; duplicates are tolerated and removed.
	Deps []Dep
	// DepResolved is the capture-run time at which the last gating event
	// arrived; for dependency-free events pass 0 (meaning "start of run").
	DepResolved sim.Tick
	// Now is the capture-run injection time.
	Now sim.Tick
}

// RecordSend registers an injection and returns its EventID, which the
// caller must attach to the in-flight message so RecordArrive can find it.
func (r *Recorder) RecordSend(info SendInfo) EventID {
	if info.Src < 0 || info.Src >= r.nodes || info.Dst < 0 || info.Dst >= r.nodes {
		panic(fmt.Sprintf("trace: send endpoints (%d->%d) out of [0,%d)", info.Src, info.Dst, r.nodes))
	}
	if info.Bytes <= 0 {
		panic(fmt.Sprintf("trace: send with non-positive size %d", info.Bytes))
	}
	id := EventID(len(r.events) + 1)
	gap := info.Now - info.DepResolved
	if gap < 0 {
		panic(fmt.Sprintf("trace: event %d injected at %d before its dependency resolved at %d",
			id, info.Now, info.DepResolved))
	}
	deps := dedupeDeps(info.Deps, id)
	r.events = append(r.events, Event{
		ID:        id,
		Src:       info.Src,
		Dst:       info.Dst,
		Bytes:     info.Bytes,
		Class:     info.Class,
		Kind:      info.Kind,
		Gap:       gap,
		Deps:      deps,
		RefInject: info.Now,
		RefArrive: -1,
	})
	return id
}

// dedupeDeps removes duplicate edges and checks the DAG discipline.
func dedupeDeps(deps []Dep, self EventID) []Dep {
	if len(deps) == 0 {
		return nil
	}
	out := make([]Dep, 0, len(deps))
	seen := make(map[Dep]bool, len(deps))
	for _, d := range deps {
		if d.On == None {
			continue
		}
		if d.On >= self {
			panic(fmt.Sprintf("trace: event %d depends on non-earlier event %d", self, d.On))
		}
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
	}
	return out
}

// RecordArrive stamps the capture-run arrival time of an event.
func (r *Recorder) RecordArrive(id EventID, at sim.Tick) {
	if id == None || int(id) > len(r.events) {
		panic(fmt.Sprintf("trace: arrival for unknown event %d", id))
	}
	e := &r.events[id-1]
	if e.RefArrive >= 0 {
		panic(fmt.Sprintf("trace: event %d arrived twice", id))
	}
	if at < e.RefInject {
		panic(fmt.Sprintf("trace: event %d arrives (%d) before injection (%d)", id, at, e.RefInject))
	}
	e.RefArrive = at
}

// Finish seals the capture into a validated Trace. makespan is the
// completion time of the whole run. It returns an error if any recorded
// send never arrived — a sure sign the capture run did not drain.
func (r *Recorder) Finish(workload string, makespan sim.Tick) (*Trace, error) {
	for i := range r.events {
		if r.events[i].RefArrive < 0 {
			return nil, fmt.Errorf("trace: event %d (%s %d->%d) never arrived; capture run did not drain",
				r.events[i].ID, r.events[i].Kind, r.events[i].Src, r.events[i].Dst)
		}
	}
	t := &Trace{
		Nodes:       r.nodes,
		Workload:    workload,
		RefMakespan: makespan,
		Events:      r.events,
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return t, nil
}
