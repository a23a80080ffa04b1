// Package trace defines the dependency-annotated communication trace at the
// heart of the Self-Correction Trace Model, together with capture support,
// binary/JSON codecs, and structural validation.
//
// A trace is a DAG over network messages. Each event records, besides the
// message itself (endpoints, size, class), the *reason* it was injected when
// it was: the set of earlier events whose arrival gated it, and the local
// compute/service gap between the last gating arrival and the injection.
// Unlike a plain timestamped trace, this representation stays meaningful
// when the trace is replayed on a network with different timing: injection
// times are re-derived from dependencies instead of replayed verbatim.
package trace

import (
	"fmt"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// EventID identifies one traced message. IDs are assigned in injection
// order during capture and are therefore a valid topological order of the
// dependency DAG: every dependency refers to a strictly smaller ID.
type EventID uint32

// None is the null EventID; valid events are numbered from 1.
const None EventID = 0

// Kind classifies the protocol role of a traced message, for reporting and
// for sanity checks; the replay engines treat all kinds uniformly.
type Kind uint8

const (
	KindData     Kind = iota // generic data transfer
	KindRequest              // coherence/sync request
	KindResponse             // data or grant response
	KindControl              // invalidations, acks, recalls
	KindSync                 // lock grants, barrier releases
	numKinds
)

var kindNames = [numKinds]string{"data", "request", "response", "control", "sync"}

// String names the kind.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// DepClass labels why an event depends on another; the R8 ablation disables
// classes selectively.
type DepClass uint8

const (
	// DepProgram is program order on a core: the event could not be
	// issued before the core finished its preceding work.
	DepProgram DepClass = iota
	// DepCausal is protocol causality: a response cannot precede the
	// arrival of its request.
	DepCausal
	// DepSync is synchronization: a grant cannot precede the release, a
	// barrier release cannot precede the last arrival.
	DepSync
	numDepClasses
)

var depClassNames = [numDepClasses]string{"program", "causal", "sync"}

// String names the dependency class.
func (c DepClass) String() string {
	if int(c) < len(depClassNames) {
		return depClassNames[c]
	}
	return "invalid"
}

// Dep is one dependency edge: this event may not be injected until event On
// has *arrived* at its destination.
type Dep struct {
	On    EventID  `json:"on"`
	Class DepClass `json:"class"`
}

// Event is one traced message plus its injection causes.
type Event struct {
	ID    EventID   `json:"id"`
	Src   int       `json:"src"`
	Dst   int       `json:"dst"`
	Bytes int       `json:"bytes"`
	Class noc.Class `json:"class"`
	Kind  Kind      `json:"kind"`

	// Gap is the local think/service time, in cycles, between the moment
	// the last dependency arrived (or time zero if no dependencies) and
	// the injection of this message during capture.
	Gap sim.Tick `json:"gap"`
	// Deps lists the gating events.
	Deps []Dep `json:"deps,omitempty"`

	// RefInject and RefArrive are the timestamps observed on the capture
	// (reference) network. Naive replay uses RefInject verbatim; the
	// self-correction model uses them only for diagnostics.
	RefInject sim.Tick `json:"ref_inject"`
	RefArrive sim.Tick `json:"ref_arrive"`
}

// Trace is a complete captured run.
type Trace struct {
	// Nodes is the endpoint count of the captured system.
	Nodes int `json:"nodes"`
	// Workload labels the run for reports.
	Workload string `json:"workload"`
	// RefMakespan is the completion time of the capture run, including
	// trailing computation after the last message.
	RefMakespan sim.Tick `json:"ref_makespan"`
	// Events are topologically ordered by ID (ID = index+1).
	Events []Event `json:"events"`

	// CaptureKey names the capture that produced this trace, when a session
	// cache published it (simcache.DoTrace records it before any other
	// goroutine can see the trace); empty for a hand-built, file-loaded or
	// transformed trace. It is where the trace came from, not what it holds:
	// no codec writes it and transforms do not copy it.
	CaptureKey string `json:"-"`
}

// NumEvents returns the event count.
func (t *Trace) NumEvents() int { return len(t.Events) }

// Event returns the event with the given ID; it panics on the null or
// out-of-range ID, which always indicates a corrupted trace.
func (t *Trace) Event(id EventID) *Event {
	if id == None || int(id) > len(t.Events) {
		panic(fmt.Sprintf("trace: event id %d out of range [1,%d]", id, len(t.Events)))
	}
	return &t.Events[id-1]
}

// Validate checks the structural invariants every consumer relies on:
// IDs dense and ascending, endpoints in range, dependencies strictly
// earlier, gaps non-negative, and reference timestamps coherent. It is one
// drained pass: the checks every pass makes.
func (t *Trace) Validate() error {
	it, err := t.Pass()
	if err != nil {
		return err
	}
	var e Event
	for {
		if ok, err := it.Next(&e); !ok {
			return err
		}
	}
}

// Stats summarizes a trace for reports (StreamAnalyze computes it).
type Stats struct {
	Events      int
	Bytes       uint64
	DepEdges    [numDepClasses]int
	ByKind      [numKinds]int
	RefMakespan sim.Tick
}

// String renders the stats compactly.
func (s Stats) String() string {
	return fmt.Sprintf("events=%d bytes=%d deps[prog=%d causal=%d sync=%d] makespan=%d",
		s.Events, s.Bytes, s.DepEdges[DepProgram], s.DepEdges[DepCausal], s.DepEdges[DepSync], s.RefMakespan)
}
