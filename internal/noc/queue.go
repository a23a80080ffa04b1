package noc

import "onocsim/internal/sim"

// DeliveryQueue holds messages whose delivery cycle is already decided — the
// ideal fabric's in-flight messages, a crossbar's arrivals, the mesh's
// loopback messages — and hands them back by cycle, same-cycle ones in the
// order they were pushed. It is a sim.Calendar, whose rule every user keeps:
// a message is pushed for a cycle after the current one, never before the
// last one popped. Only Clone and Restore are its own: they deep-copy
// messages, so a snapshot never aliases a pooled live one.
type DeliveryQueue struct {
	sim.Calendar[*Message]
}

// NewDeliveryQueue returns an empty queue whose calendar ring spans span
// cycles (see sim.NewCalendar).
func NewDeliveryQueue(span int) DeliveryQueue {
	return DeliveryQueue{sim.NewCalendar[*Message](span)}
}

// Clone returns a deep copy for a Snapshot: every entry gets a fresh Message,
// so neither side observes the other's mutations or pool recycling.
func (q *DeliveryQueue) Clone() DeliveryQueue {
	var c DeliveryQueue
	c.Restore(q)
	return c
}

// Restore replaces q's contents with a deep copy of snap, which stays valid
// for further restores.
func (q *DeliveryQueue) Restore(snap *DeliveryQueue) {
	q.Calendar.Restore(&snap.Calendar, func(m *Message) *Message {
		c := *m
		return &c
	})
}
