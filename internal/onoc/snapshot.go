package onoc

import (
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// This file implements noc.Checkpointer for both crossbars. A snapshot deep-
// copies every piece of round-trip-mutable state — clock, statistics, sender
// FIFOs, the arrival heap, token/arbitration cursors, energy counters — and
// nothing that is immutable or a pure function of the configuration: the
// photonic budget, serialization memo tables, and the lazily materialized
// fault timelines (which persist across Reset for the same reason). Messages
// are cloned on capture *and* on restore, so one snapshot can seed any number
// of replays without aliasing the pool-recycled live copies.

// cloneMsg returns an independent copy of m. Payload is carried by reference
// (it is opaque to the fabric and nil on every replay path).
func cloneMsg(m *noc.Message) *noc.Message {
	c := *m
	return &c
}

// cloneArrivals deep-copies an arrival heap; copying the slice preserves the
// heap shape.
func cloneArrivals(src arrivalHeap) arrivalHeap {
	if len(src) == 0 {
		return nil
	}
	dst := make(arrivalHeap, len(src))
	copy(dst, src)
	for i := range dst {
		dst[i].msg = cloneMsg(dst[i].msg)
	}
	return dst
}

// restoreArrivals replaces h's contents with a deep copy of src, reusing h's
// backing array when possible.
func restoreArrivals(h *arrivalHeap, src arrivalHeap) {
	q := *h
	for i := range q {
		q[i] = arrival{}
	}
	q = q[:0]
	for _, a := range src {
		a.msg = cloneMsg(a.msg)
		q = append(q, a)
	}
	*h = q
}

// srcQueueSnap is the live region of one sender FIFO, head-normalized.
type srcQueueSnap []*noc.Message

// captureQueue deep-copies the live region of q.
func captureQueue(q *srcQueue) srcQueueSnap {
	if q.empty() {
		return nil
	}
	live := q.buf[q.head:]
	out := make(srcQueueSnap, len(live))
	for i, m := range live {
		out[i] = cloneMsg(m)
	}
	return out
}

// restoreQueue replaces q's contents with a deep copy of snap. Normalizing
// head to zero is observationally identical: FIFO behavior depends only on
// the live region.
func restoreQueue(q *srcQueue, snap srcQueueSnap) {
	q.reset()
	for _, m := range snap {
		q.push(cloneMsg(m))
	}
}

// mwsrChannelSnap captures one home channel's arbitration and queue state.
type mwsrChannelSnap struct {
	queues     []srcQueueSnap // nil entries for empty FIFOs
	queued     int
	tokenPos   int
	tokenReady sim.Tick
	holdCount  int
	flying     bool
}

// mwsrSnapshot is the MWSR crossbar's full mutable state. The waiting bitsets
// and the wake heap are derived from the queues and are rebuilt by Restore.
type mwsrSnapshot struct {
	now      sim.Tick
	stats    *noc.Stats
	regens   uint64
	seq      uint64
	inflight int
	bitsSent uint64
	grabs    uint64
	arrivals arrivalHeap
	channels []mwsrChannelSnap
}

// SnapshotAt implements noc.Snapshot.
func (s *mwsrSnapshot) SnapshotAt() sim.Tick { return s.now }

// Snapshot implements noc.Checkpointer.
func (n *Network) Snapshot() noc.Snapshot {
	s := &mwsrSnapshot{
		now:      n.now,
		stats:    n.stats.Clone(),
		regens:   n.regens,
		seq:      n.seq,
		inflight: n.inflight,
		bitsSent: n.bitsSent,
		grabs:    n.grabs,
		arrivals: cloneArrivals(n.arrivals),
		channels: make([]mwsrChannelSnap, len(n.channels)),
	}
	for d := range n.channels {
		ch := &n.channels[d]
		cs := mwsrChannelSnap{
			queued:     ch.queued,
			tokenPos:   ch.tokenPos,
			tokenReady: ch.tokenReady,
			holdCount:  ch.holdCount,
			flying:     ch.flying,
		}
		if ch.queued > 0 {
			cs.queues = make([]srcQueueSnap, len(ch.queues))
			for src := range ch.queues {
				cs.queues[src] = captureQueue(&ch.queues[src])
			}
		}
		s.channels[d] = cs
	}
	return s
}

// Restore implements noc.Checkpointer.
func (n *Network) Restore(s noc.Snapshot) {
	snap := s.(*mwsrSnapshot)
	n.now = snap.now
	n.stats = snap.stats.Clone()
	n.regens = snap.regens
	n.seq = snap.seq
	n.inflight = snap.inflight
	n.bitsSent = snap.bitsSent
	n.grabs = snap.grabs
	restoreArrivals(&n.arrivals, snap.arrivals)
	clear(n.wake)
	n.wake = n.wake[:0]
	for d := range n.channels {
		ch, cs := &n.channels[d], &snap.channels[d]
		clear(ch.waiting)
		for src := range ch.queues {
			if cs.queues != nil && cs.queues[src] != nil {
				restoreQueue(&ch.queues[src], cs.queues[src])
				ch.waiting.set(src)
			} else {
				ch.queues[src].reset()
			}
		}
		ch.queued = cs.queued
		ch.tokenPos = cs.tokenPos
		ch.tokenReady = cs.tokenReady
		ch.holdCount = cs.holdCount
		ch.flying = cs.flying
		if ch.queued > 0 {
			n.wake.push(ch)
		}
	}
}

// swmrSnapshot is the SWMR crossbar's full mutable state.
type swmrSnapshot struct {
	now      sim.Tick
	stats    *noc.Stats
	seq      uint64
	inflight int
	bitsSent uint64
	sends    uint64
	chanFree []sim.Tick
	queues   []srcQueueSnap
	arrivals arrivalHeap
}

// SnapshotAt implements noc.Snapshot.
func (s *swmrSnapshot) SnapshotAt() sim.Tick { return s.now }

// Snapshot implements noc.Checkpointer.
func (n *SWMR) Snapshot() noc.Snapshot {
	s := &swmrSnapshot{
		now:      n.now,
		stats:    n.stats.Clone(),
		seq:      n.seq,
		inflight: n.inflight,
		bitsSent: n.bitsSent,
		sends:    n.sends,
		chanFree: make([]sim.Tick, len(n.chanFree)),
		queues:   make([]srcQueueSnap, len(n.queues)),
		arrivals: cloneArrivals(n.arrivals),
	}
	copy(s.chanFree, n.chanFree)
	for src := range n.queues {
		s.queues[src] = captureQueue(&n.queues[src])
	}
	return s
}

// Restore implements noc.Checkpointer.
func (n *SWMR) Restore(s noc.Snapshot) {
	snap := s.(*swmrSnapshot)
	n.now = snap.now
	n.stats = snap.stats.Clone()
	n.seq = snap.seq
	n.inflight = snap.inflight
	n.bitsSent = snap.bitsSent
	n.sends = snap.sends
	copy(n.chanFree, snap.chanFree)
	clear(n.waiting)
	for src := range n.queues {
		restoreQueue(&n.queues[src], snap.queues[src])
		if snap.queues[src] != nil {
			n.waiting.set(src)
		}
	}
	restoreArrivals(&n.arrivals, snap.arrivals)
}
