package noc

import "onocsim/internal/sim"

// DeliveryQueue holds messages whose delivery cycle is already decided — the
// ideal fabric's in-flight messages, a crossbar's arrivals, the mesh's
// loopback messages — and hands them back by cycle, same-cycle ones in the
// order they were pushed. It is a value-based 4-ary min-heap on (at, seq):
// like the sim engine it avoids container/heap, whose interface{} crossings
// box an allocation onto every push and pop. The zero value is an empty queue.
type DeliveryQueue struct {
	h deliveryHeap
	// seq counts pushes since the last Reset; it is the same-cycle tie-break,
	// so a restored queue keeps handing out the order the original would.
	seq uint64
}

type pendingDelivery struct {
	at  sim.Tick
	seq uint64
	msg *Message
}

type deliveryHeap []pendingDelivery

func (h deliveryHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

// Len returns the number of queued messages.
func (q *DeliveryQueue) Len() int { return len(q.h) }

// NextAt returns the earliest queued delivery cycle, or Never when empty.
func (q *DeliveryQueue) NextAt() sim.Tick {
	if len(q.h) == 0 {
		return Never
	}
	return q.h[0].at
}

// Push queues m for delivery at cycle at.
func (q *DeliveryQueue) Push(at sim.Tick, m *Message) {
	q.seq++
	q.h = append(q.h, pendingDelivery{at: at, seq: q.seq, msg: m})
	h := q.h
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 4
		if !h.less(i, p) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

// Pop removes and returns the message with the smallest (at, push order).
// The queue must not be empty.
func (q *DeliveryQueue) Pop() *Message {
	h := q.h
	top := h[0].msg
	n := len(h) - 1
	h[0] = h[n]
	h[n] = pendingDelivery{} // release the message reference
	q.h = h[:n]
	for i := 0; ; {
		best := i
		for k := 4*i + 1; k <= 4*i+4 && k < n; k++ {
			if h.less(k, best) {
				best = k
			}
		}
		if best == i {
			return top
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}

// Reset empties the queue, keeping its storage but no message reference
// (receivers recycle delivered messages; see MsgPool).
func (q *DeliveryQueue) Reset() {
	clear(q.h)
	q.h = q.h[:0]
	q.seq = 0
}

// Clone returns a deep copy for a Snapshot: every entry gets a fresh Message,
// so neither side observes the other's mutations or pool recycling. Copying
// the slice preserves the heap shape.
func (q *DeliveryQueue) Clone() DeliveryQueue {
	var c DeliveryQueue
	c.Restore(q)
	return c
}

// Restore replaces q's contents with a deep copy of snap, which stays valid
// for further restores.
func (q *DeliveryQueue) Restore(snap *DeliveryQueue) {
	clear(q.h)
	q.h = append(q.h[:0], snap.h...)
	for i := range q.h {
		m := *q.h[i].msg
		q.h[i].msg = &m
	}
	q.seq = snap.seq
}
