package trace

import (
	"fmt"

	"onocsim/internal/sim"
)

// The in-memory analyses StreamAnalyze is held to: each walks a materialized
// trace in the obvious way. They are the oracle of window_test.go and
// stream_test.go and have no other caller.

// ComputeStats scans the trace once.
func (t *Trace) ComputeStats() Stats {
	s := Stats{Events: len(t.Events), RefMakespan: t.RefMakespan}
	for i := range t.Events {
		e := &t.Events[i]
		s.Bytes += uint64(e.Bytes)
		if int(e.Kind) < len(s.ByKind) {
			s.ByKind[e.Kind]++
		}
		for _, d := range e.Deps {
			if int(d.Class) < len(s.DepEdges) {
				s.DepEdges[d.Class]++
			}
		}
	}
	return s
}

// CriticalPathWith computes the critical path under a per-event latency
// estimate. lat must have one entry per event.
func (t *Trace) CriticalPathWith(lat []sim.Tick) (CriticalPath, error) {
	if len(lat) != len(t.Events) {
		return CriticalPath{}, fmt.Errorf("trace: %d latencies for %d events", len(lat), len(t.Events))
	}
	n := len(t.Events)
	if n == 0 {
		return CriticalPath{}, nil
	}
	// finish[i] = completion time of event i on the critical schedule;
	// pred[i] = the dependency that determined it (-1 if none).
	finish := make([]sim.Tick, n)
	pred := make([]int, n)
	bestEnd, bestIdx := sim.Tick(-1), 0
	for i := range t.Events {
		e := &t.Events[i]
		pred[i] = -1
		var ready sim.Tick
		for _, d := range e.Deps {
			di := int(d.On) - 1
			if finish[di] > ready {
				ready = finish[di]
				pred[i] = di
			}
		}
		finish[i] = ready + e.Gap + lat[i]
		if finish[i] > bestEnd {
			bestEnd, bestIdx = finish[i], i
		}
	}
	// Walk the predecessor chain back.
	var rev []EventID
	for i := bestIdx; i >= 0; i = pred[i] {
		rev = append(rev, t.Events[i].ID)
	}
	path := make([]EventID, len(rev))
	for i := range rev {
		path[i] = rev[len(rev)-1-i]
	}
	return CriticalPath{Length: bestEnd, Events: path}, nil
}

// CriticalPathReference computes the critical path under the latencies
// observed on the capture fabric.
func (t *Trace) CriticalPathReference() (CriticalPath, error) {
	lat := make([]sim.Tick, len(t.Events))
	for i := range t.Events {
		lat[i] = t.Events[i].RefArrive - t.Events[i].RefInject
	}
	return t.CriticalPathWith(lat)
}

// DepthHistogram returns, per dependency-chain depth, the number of events
// at that depth (depth 0 = no dependencies). The distribution characterizes
// how serial a workload's communication is.
func (t *Trace) DepthHistogram() []int {
	depth := make([]int, len(t.Events))
	maxDepth := 0
	for i := range t.Events {
		d := 0
		for _, dep := range t.Events[i].Deps {
			if pd := depth[int(dep.On)-1] + 1; pd > d {
				d = pd
			}
		}
		depth[i] = d
		if d > maxDepth {
			maxDepth = d
		}
	}
	hist := make([]int, maxDepth+1)
	for _, d := range depth {
		hist[d]++
	}
	return hist
}

// NodeActivity returns per-node send and receive counts, exposing hotspots.
func (t *Trace) NodeActivity() (sends, recvs []int) {
	sends = make([]int, t.Nodes)
	recvs = make([]int, t.Nodes)
	for i := range t.Events {
		sends[t.Events[i].Src]++
		recvs[t.Events[i].Dst]++
	}
	return sends, recvs
}
