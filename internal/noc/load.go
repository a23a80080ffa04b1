package noc

import "fmt"

// PairLoad aggregates the traffic offered between one (src, dst) endpoint
// pair: how many messages and how many payload bytes.
type PairLoad struct {
	Messages int64
	Bytes    int64
}

// LoadMatrix is the per-(src, dst) offered-load histogram of a traffic
// source, built in one O(messages) pass. Analytical latency models walk it
// pair by pair and fold the pairs into whatever their fabric contends on: the
// MWSR crossbar's destination channels, the SWMR crossbar's source channels,
// the mesh's per-pair routes. Self-traffic (src == dst) bypasses every
// fabric, so callers conventionally exclude it.
type LoadMatrix struct {
	nodes int
	pairs []PairLoad // row-major [src*nodes+dst], zero value = no traffic
}

// NewLoadMatrix returns an empty histogram over the given endpoint count.
func NewLoadMatrix(nodes int) *LoadMatrix {
	if nodes < 1 {
		panic(fmt.Sprintf("noc: load matrix needs ≥1 node, got %d", nodes))
	}
	return &LoadMatrix{nodes: nodes, pairs: make([]PairLoad, nodes*nodes)}
}

// Nodes returns the endpoint count.
func (l *LoadMatrix) Nodes() int { return l.nodes }

// Add records one message of the given payload size.
func (l *LoadMatrix) Add(src, dst, bytes int) {
	if src < 0 || src >= l.nodes || dst < 0 || dst >= l.nodes {
		panic(fmt.Sprintf("noc: load matrix endpoints (%d->%d) out of [0,%d)", src, dst, l.nodes))
	}
	p := &l.pairs[src*l.nodes+dst]
	p.Messages++
	p.Bytes += int64(bytes)
}

// ForEachPair visits every pair with traffic, in ascending (src, dst) order.
func (l *LoadMatrix) ForEachPair(fn func(src, dst int, load PairLoad)) {
	for i, p := range l.pairs {
		if p.Messages > 0 {
			fn(i/l.nodes, i%l.nodes, p)
		}
	}
}
