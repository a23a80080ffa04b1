package noc

import (
	"fmt"

	"onocsim/internal/sim"
)

// Ideal is a contention-free fixed-latency fabric with an optional per-node
// injection bandwidth cap. It is the cheap reference network on which traces
// are captured: fast to simulate and deliberately different from both study
// fabrics, so that naive timestamp replay exhibits the timing error the
// self-correction model must remove.
type Ideal struct {
	nodes     int
	latency   sim.Tick
	bytesPerC int
	now       sim.Tick
	deliver   DeliverFunc
	stats     *Stats

	// nextFree[n] is the first cycle node n's injection port is free,
	// implementing the bandwidth cap as a serialization delay.
	nextFree []sim.Tick
	inflight DeliveryQueue
}

// NewIdeal builds an ideal network over the given number of nodes with the
// given fixed latency (cycles) and per-node injection bandwidth cap in
// bytes/cycle (0 disables the cap).
func NewIdeal(nodes int, latency sim.Tick, bytesPerCycle int) *Ideal {
	if nodes < 1 {
		panic(fmt.Sprintf("noc: ideal network needs ≥1 node, got %d", nodes))
	}
	if latency < 1 {
		panic(fmt.Sprintf("noc: ideal latency must be ≥1, got %d", latency))
	}
	return &Ideal{
		nodes:     nodes,
		latency:   latency,
		bytesPerC: bytesPerCycle,
		stats:     NewStats(),
		nextFree:  make([]sim.Tick, nodes),
		inflight:  NewDeliveryQueue(256), // the latency plus some port backlog
	}
}

// Nodes implements Network.
func (n *Ideal) Nodes() int { return n.nodes }

// SetDeliver implements Network.
func (n *Ideal) SetDeliver(fn DeliverFunc) { n.deliver = fn }

// Now implements Network.
func (n *Ideal) Now() sim.Tick { return n.now }

// Stats implements Network.
func (n *Ideal) Stats() *Stats { return n.stats }

// Inject implements Network.
func (n *Ideal) Inject(m *Message) {
	if m.Src < 0 || m.Src >= n.nodes || m.Dst < 0 || m.Dst >= n.nodes {
		panic(fmt.Sprintf("noc: message %d endpoints (%d->%d) out of range [0,%d)", m.ID, m.Src, m.Dst, n.nodes))
	}
	m.Inject = n.now
	n.stats.Injected++
	start := n.now
	if n.bytesPerC > 0 {
		if n.nextFree[m.Src] > start {
			start = n.nextFree[m.Src]
		}
		ser := sim.Tick((m.Bytes + n.bytesPerC - 1) / n.bytesPerC)
		if ser < 1 {
			ser = 1
		}
		n.nextFree[m.Src] = start + ser
		start += ser - 1
	}
	n.stats.QueueDelay.Add(int64(start - n.now))
	at := start + n.latency
	if m.Src == m.Dst {
		at = n.now + 1
	}
	n.inflight.Push(at, m)
}

// Tick implements Network.
func (n *Ideal) Tick() {
	n.now++
	for n.inflight.NextAt() <= n.now {
		m := n.inflight.Pop()
		m.Arrive = n.now
		n.stats.RecordDelivery(m)
		n.stats.HopCount.Add(1)
		if n.deliver != nil {
			n.deliver(m)
		}
	}
}

// Busy implements Network.
func (n *Ideal) Busy() bool { return n.inflight.Len() > 0 }

// NextWake implements Network: the earliest pending delivery, or Never when
// drained. The fixed-latency model does no other per-cycle work.
func (n *Ideal) NextWake() sim.Tick { return n.inflight.NextAt() }

// SkipTo implements Network. All internal state (nextFree, delivery times)
// is kept in absolute cycles, so skipping is a pure clock jump.
func (n *Ideal) SkipTo(t sim.Tick) {
	if t > n.now {
		n.now = t
	}
}

// Reset implements Resettable: back to the just-constructed state.
func (n *Ideal) Reset() {
	n.now = 0
	n.stats = NewStats()
	for i := range n.nextFree {
		n.nextFree[i] = 0
	}
	n.inflight.Reset()
}

// idealSnapshot captures the ideal fabric's mutable state: clock, statistics,
// per-node port reservations and the in-flight messages.
type idealSnapshot struct {
	now      sim.Tick
	stats    *Stats
	nextFree []sim.Tick
	inflight DeliveryQueue
}

// SnapshotAt implements Snapshot.
func (s *idealSnapshot) SnapshotAt() sim.Tick { return s.now }

// Snapshot implements Checkpointer.
func (n *Ideal) Snapshot() Snapshot {
	return &idealSnapshot{
		now:      n.now,
		stats:    n.stats.Clone(),
		nextFree: append([]sim.Tick(nil), n.nextFree...),
		inflight: n.inflight.Clone(),
	}
}

// Restore implements Checkpointer. It deep-copies from the snapshot, so the
// snapshot stays valid for further restores.
func (n *Ideal) Restore(s Snapshot) {
	snap := s.(*idealSnapshot)
	n.now = snap.now
	n.stats = snap.stats.Clone()
	copy(n.nextFree, snap.nextFree)
	n.inflight.Restore(&snap.inflight)
}

// ShardNode implements ScheduleShardable. The only stateful resource is the
// per-source injection port (nextFree), so a message's whole lifetime is
// owned by its source.
func (n *Ideal) ShardNode(src, dst int) int { return src }

// SetShardObs implements ScheduleShardable; the sink is ignored.
func (n *Ideal) SetShardObs(ShardObsFunc) {}

// SeqOrder implements ScheduleShardable; see ShardObsFunc.
func (n *Ideal) SeqOrder() SeqOrder { return 0 }

// ZeroLoadLatency implements Network.
func (n *Ideal) ZeroLoadLatency(src, dst, bytes int) sim.Tick {
	if src == dst {
		return 1
	}
	l := n.latency
	if n.bytesPerC > 0 {
		l += sim.Tick((bytes+n.bytesPerC-1)/n.bytesPerC) - 1
	}
	return l
}

// PowerReport implements Network. The ideal fabric has no power model; it
// exists only as a capture substrate.
func (n *Ideal) PowerReport(elapsed sim.Tick) PowerReport {
	return PowerReport{Breakdown: map[string]float64{}}
}
