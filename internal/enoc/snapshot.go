package enoc

import (
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// This file implements noc.Checkpointer for the wormhole mesh. Unlike the
// crossbars, in-flight state here is a pointer graph: flits point to their
// packet, packets to their message, and one packet is referenced from many
// places at once (every flit of it, the VC owner field, the NI send state).
// Snapshot and Restore therefore clone through a memoizing graphCloner so the
// sharing structure — which the allocator and the protocol both rely on — is
// reproduced exactly. The packet free list is deliberately left out on both
// sides: it holds only dead state, and restored traffic uses fresh clones, so
// a stale free-list entry can never alias a live packet. State derived from
// the queues — request rows, the wake calendar, NI pending counts, the busy
// sets — is not captured either: Restore rebuilds it from the queues it
// restores.

// graphCloner deep-copies the packet/message graph while preserving aliasing:
// every distinct source pointer maps to exactly one clone. Flits are values;
// copying one only needs its packet pointer remapped.
type graphCloner struct {
	msgs map[*noc.Message]*noc.Message
	pkts map[*packet]*packet
}

func newGraphCloner() *graphCloner {
	return &graphCloner{
		msgs: make(map[*noc.Message]*noc.Message),
		pkts: make(map[*packet]*packet),
	}
}

func (c *graphCloner) msg(m *noc.Message) *noc.Message {
	if m == nil {
		return nil
	}
	if d, ok := c.msgs[m]; ok {
		return d
	}
	d := &noc.Message{}
	*d = *m
	c.msgs[m] = d
	return d
}

func (c *graphCloner) pkt(p *packet) *packet {
	if p == nil {
		return nil
	}
	if d, ok := c.pkts[p]; ok {
		return d
	}
	d := &packet{}
	*d = *p
	d.msg = c.msg(p.msg)
	c.pkts[p] = d
	return d
}

func (c *graphCloner) flit(f flit) flit {
	f.pkt = c.pkt(f.pkt)
	return f
}

func (c *graphCloner) pktSlice(dst []*packet, src []*packet) []*packet {
	dst = dst[:0]
	for _, p := range src {
		dst = append(dst, c.pkt(p))
	}
	return dst
}

// vcBufSnap mirrors vcBuf with cloned contents; flits lists the ring oldest
// first.
type vcBufSnap struct {
	flits   []flit
	owner   *packet
	outPort int
	outVC   int
	granted bool
}

// routerSnap captures one router's buffers, credits and arbitration; the
// flits on its links are in the downstream buffers.
type routerSnap struct {
	in        [numPorts][]vcBufSnap
	outCredit [numPorts][]int
	outBusy   [numPorts][]bool
	rr        [numPorts]int
}

// niSnap captures one network interface's queues and send state.
type niSnap struct {
	classQ  [noc.NumClasses][]*packet
	sending [noc.NumClasses]sendState
	rr      int
}

// meshSnapshot is the mesh fabric's full mutable state.
type meshSnapshot struct {
	now      sim.Tick
	stats    noc.Stats
	power    powerCounters
	selfQ    noc.DeliveryQueue
	inflight int
	routers  []routerSnap
	nis      []niSnap
}

// SnapshotAt implements noc.Snapshot.
func (s *meshSnapshot) SnapshotAt() sim.Tick { return s.now }

// Snapshot implements noc.Checkpointer.
func (n *Network) Snapshot() noc.Snapshot {
	cl := newGraphCloner()
	s := &meshSnapshot{
		now:      n.now,
		stats:    n.stats,
		power:    n.power,
		selfQ:    n.selfQ.Clone(),
		inflight: n.inflight,
		routers:  make([]routerSnap, len(n.routers)),
		nis:      make([]niSnap, len(n.nis)),
	}
	for ri, r := range n.routers {
		rs := &s.routers[ri]
		rs.rr = r.rr
		for p := 0; p < numPorts; p++ {
			rs.in[p] = make([]vcBufSnap, len(r.in[p]))
			for v := range r.in[p] {
				b := &r.in[p][v]
				bs := &rs.in[p][v]
				*bs = vcBufSnap{owner: cl.pkt(b.owner), outPort: b.outPort, outVC: b.outVC, granted: b.granted}
				if b.n > 0 {
					bs.flits = make([]flit, 0, b.n)
				}
				for i := 0; i < b.n; i++ {
					bs.flits = append(bs.flits, cl.flit(*b.at(i)))
				}
			}
			rs.outCredit[p] = append([]int(nil), r.outCredit[p]...)
			rs.outBusy[p] = append([]bool(nil), r.outBusy[p]...)
		}
	}
	for ni, iface := range n.nis {
		ns := &s.nis[ni]
		ns.rr = iface.rr
		for c := range iface.classQ {
			q := &iface.classQ[c]
			ns.classQ[c] = cl.pktSlice(nil, q.q[q.head:])
			ns.sending[c] = iface.sending[c]
			ns.sending[c].pkt = cl.pkt(iface.sending[c].pkt)
		}
	}
	return s
}

// Restore implements noc.Checkpointer. A fresh cloner maps snapshot pointers
// to new live ones, so the snapshot remains valid for further restores and
// never aliases the running fabric.
func (n *Network) Restore(s noc.Snapshot) {
	snap := s.(*meshSnapshot)
	cl := newGraphCloner()
	n.now = snap.now
	n.stats = snap.stats
	n.power = snap.power
	n.inflight = snap.inflight
	n.selfQ.Restore(&snap.selfQ)
	clear(n.bufBusy)
	clear(n.niBusy)
	n.wake.Reset()
	for ri, r := range n.routers {
		rs := &snap.routers[ri]
		r.rr = rs.rr
		r.req = [numPorts + 1]reqSet{}
		for p := 0; p < numPorts; p++ {
			for v := range r.in[p] {
				b := &r.in[p][v]
				bs := &rs.in[p][v]
				*b = vcBuf{q: b.q, owner: cl.pkt(bs.owner), outPort: bs.outPort, outVC: bs.outVC, granted: bs.granted}
				for _, f := range bs.flits {
					r.push(p, v, cl.flit(f))
				}
			}
			copy(r.outCredit[p], rs.outCredit[p])
			copy(r.outBusy[p], rs.outBusy[p])
		}
	}
	for ni, iface := range n.nis {
		ns := &snap.nis[ni]
		iface.rr = ns.rr
		iface.pending = 0
		for c := range iface.classQ {
			iface.classQ[c] = pktQueue{q: iface.classQ[c].q[:0]}
			for _, p := range ns.classQ[c] {
				iface.enqueue(cl.pkt(p))
			}
			iface.sending[c] = ns.sending[c]
			if p := cl.pkt(ns.sending[c].pkt); p != nil {
				iface.sending[c].pkt = p
				iface.pending++
				n.niBusy.add(ni)
			}
		}
	}
}
