package onoc

import (
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// This file implements noc.Checkpointer for both crossbars: the physical
// layer's share (physSnap: clock, statistics, arrival queue, energy counters)
// plus each arbitration rule's sender FIFOs and cursors. Nothing immutable or
// a pure function of the configuration is captured (see physSnap). Messages
// are cloned on capture *and* on restore, so one snapshot can seed any number
// of replays without aliasing the pool-recycled live copies.

// cloneMsg returns an independent copy of m. Payload is carried by reference
// (it is opaque to the fabric and nil on every replay path).
func cloneMsg(m *noc.Message) *noc.Message {
	c := *m
	return &c
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
// and the wake wheel are derived from the queues and are rebuilt by Restore.
type mwsrSnapshot struct {
	physSnap
	grabs, regens uint64
	channels      []mwsrChannelSnap
}

// Snapshot implements noc.Checkpointer.
func (n *Network) Snapshot() noc.Snapshot {
	s := &mwsrSnapshot{
		physSnap: n.snapshot(),
		grabs:    n.grabs,
		regens:   n.regens,
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
	n.restore(&snap.physSnap)
	n.grabs, n.regens = snap.grabs, snap.regens
	n.wake.reset()
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
			n.wake.add(ch, n.now)
		}
	}
}

// swmrSnapshot is the SWMR crossbar's full mutable state.
type swmrSnapshot struct {
	physSnap
	chanFree []sim.Tick
	queues   []srcQueueSnap
}

// Snapshot implements noc.Checkpointer.
func (n *SWMR) Snapshot() noc.Snapshot {
	s := &swmrSnapshot{
		physSnap: n.snapshot(),
		chanFree: append([]sim.Tick(nil), n.chanFree...),
		queues:   make([]srcQueueSnap, len(n.queues)),
	}
	for src := range n.queues {
		s.queues[src] = captureQueue(&n.queues[src])
	}
	return s
}

// Restore implements noc.Checkpointer.
func (n *SWMR) Restore(s noc.Snapshot) {
	snap := s.(*swmrSnapshot)
	n.restore(&snap.physSnap)
	copy(n.chanFree, snap.chanFree)
	clear(n.waiting)
	for src := range n.queues {
		restoreQueue(&n.queues[src], snap.queues[src])
		if snap.queues[src] != nil {
			n.waiting.set(src)
		}
	}
}
