package enoc

import (
	"math/bits"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// portUnrouted is the outPort of a VC whose packet has no route at this
// router yet, and the row of router.req that collects such VCs.
const portUnrouted = numPorts

// vcBuf is one virtual-channel input buffer.
type vcBuf struct {
	// q is a ring of BufDepth flits held by value, allocated when the VC
	// first holds a flit so memory follows use rather than ports × VCs ×
	// depth. head indexes the oldest flit, n counts them.
	q       []flit
	head, n int
	// owner is the packet currently allocated to this VC; a VC is busy
	// from head-flit allocation until its tail flit departs.
	owner *packet
	// outPort/outVC are the route decision for the owner packet. outPort
	// is computed once per packet at this router, the first cycle allocate
	// finds the head flit ready, and is portUnrouted until then.
	outPort int
	outVC   int
	granted bool
}

// at returns the i-th oldest slot of the ring; at(b.n) is where the next
// flit goes.
func (b *vcBuf) at(i int) *flit {
	if i += b.head; i >= len(b.q) {
		i -= len(b.q)
	}
	return &b.q[i]
}

// link models a point-to-point channel with a fixed traversal delay. Flits
// pushed at cycle t surface at the downstream input buffer at t+delay.
// wrap marks torus wraparound links — the datelines of the VC discipline.
type link struct {
	delay    sim.Tick
	dst      *router
	dstPort  int
	wrap     bool
	inflight []linkFlit
}

// linkFlit is a flit on the wire: when it surfaces and on which downstream
// VC (the one its packet was granted).
type linkFlit struct {
	at sim.Tick
	vc int
	f  flit
}

// router is one mesh node: five ports (N/S/E/W/local), VCs per port,
// combined VC+switch allocation, one flit per output port per cycle.
type router struct {
	id, x, y int
	net      *Network

	in [numPorts][]vcBuf
	// out[p] describes the downstream of output port p: the link (nil for
	// unconnected edges and for the local ejection port), the mirrored
	// credit count per downstream VC, and the mirrored busy state used by
	// VC allocation.
	outLink   [numPorts]*link
	outCredit [numPorts][]int
	outBusy   [numPorts][]bool

	// upstream[p] identifies the router and output port feeding input
	// port p, so credits and VC releases can flow back. The local port
	// has no upstream (r == nil); the network interface reads buffer
	// state directly.
	upstream [numPorts]upstreamRef

	// rr are round-robin arbitration pointers, one per output port, over
	// the flattened (inputPort, vc) space.
	rr [numPorts]int

	// req[o][i] is the set of VCs of input port i (bit v = VC v; the
	// config caps VCs at 16) that hold a flit and whose packet is routed
	// to output port o; row portUnrouted holds the occupied VCs whose
	// head flit still awaits its route. allocate walks only these bits, so
	// its cost follows the VCs that can bid for an output port, not the
	// ports × VCs matrix. reqPorts[row] has bit i set iff req[row][i] is
	// non-empty: an output port nobody bids for costs one test.
	req      [numPorts + 1][numPorts]uint16
	reqPorts [numPorts + 1]uint8
	// unroutedReady is the earliest readyAt an unrouted head flit may
	// have (a lower bound: it is not raised when that head leaves the
	// row). Until then none can bid, and the scan leaves the row out.
	unroutedReady sim.Tick
	// occupancy counts buffered flits across all input VCs and linkLoad
	// the flits in flight on this router's outgoing links; the router is
	// in Network.bufBusy / linkBusy exactly while the count is non-zero,
	// so Tick never visits an empty router.
	occupancy int
	linkLoad  int
}

// upstreamRef points back at the fabric element feeding an input port.
type upstreamRef struct {
	r    *router
	port int
}

func newRouter(id, x, y int, net *Network) *router {
	r := &router{id: id, x: x, y: y, net: net}
	vcs := net.cfg.VCs
	bufs, credits, busy := make([]vcBuf, numPorts*vcs), make([]int, numPorts*vcs), make([]bool, numPorts*vcs)
	for i := range bufs {
		bufs[i].outPort = portUnrouted
		credits[i] = net.bufDepth
	}
	for p := 0; p < numPorts; p++ {
		lo, hi := p*vcs, (p+1)*vcs
		r.in[p], r.outCredit[p], r.outBusy[p] = bufs[lo:hi:hi], credits[lo:hi:hi], busy[lo:hi:hi]
	}
	return r
}

// vcRange returns the half-open VC range a message class may use. When
// fewer VCs than classes exist every class shares the full range (acceptable
// for synthetic traffic; the coherent system configures VCs ≥ classes).
func (r *router) vcRange(c noc.Class) (lo, hi int) {
	vcs := r.net.cfg.VCs
	if vcs < int(noc.NumClasses) {
		return 0, vcs
	}
	lo = int(c) * vcs / int(noc.NumClasses)
	hi = (int(c) + 1) * vcs / int(noc.NumClasses)
	return lo, hi
}

// acceptFlit appends a flit arriving on (port, vc) to the input buffer. The
// caller is responsible for having respected credits; overflow is a flow
// control protocol violation and panics.
func (r *router) acceptFlit(port, vc int, f flit) {
	b := &r.in[port][vc]
	if b.n >= r.net.bufDepth {
		panic("enoc: input buffer overflow — credit protocol violated")
	}
	f.readyAt = r.net.now + RouterStages
	if f.isHead {
		if b.owner != nil {
			panic("enoc: head flit arrived on busy VC — allocation protocol violated")
		}
		b.owner = f.pkt
		b.outPort = portUnrouted
		b.granted = false
	}
	r.push(port, vc, f)
	r.net.power.bufferWrites++
}

// push stores f at the tail of input (port, vc) and keeps the state derived
// from the queues in step; Restore refills the rings through it too.
func (r *router) push(port, vc int, f flit) {
	b := &r.in[port][vc]
	if b.q == nil {
		b.q = make([]flit, r.net.bufDepth)
	}
	*b.at(b.n) = f
	b.n++
	if b.outPort == portUnrouted && (r.reqPorts[portUnrouted] == 0 || f.readyAt < r.unroutedReady) {
		r.unroutedReady = f.readyAt
	}
	r.setReq(b.outPort, port, vc)
	if r.occupancy == 0 {
		r.net.bufBusy.add(r.id)
	}
	r.occupancy++
}

// send puts lf on outgoing link l.
func (r *router) send(l *link, lf linkFlit) {
	l.inflight = append(l.inflight, lf)
	if r.linkLoad == 0 {
		r.net.linkBusy.add(r.id)
	}
	r.linkLoad++
}

// clearDerived forgets everything derived from the (emptied) queues.
func (r *router) clearDerived() {
	r.req = [numPorts + 1][numPorts]uint16{}
	r.reqPorts = [numPorts + 1]uint8{}
	r.occupancy, r.linkLoad = 0, 0
}

// setReq and clearReq add input (inPort, vc) to, and remove it from, a row of
// the request masks.
func (r *router) setReq(row, inPort, vc int) {
	r.req[row][inPort] |= 1 << vc
	r.reqPorts[row] |= 1 << inPort
}

func (r *router) clearReq(row, inPort, vc int) {
	if r.req[row][inPort] &^= 1 << vc; r.req[row][inPort] == 0 {
		r.reqPorts[row] &^= 1 << inPort
	}
}

// drainLinks surfaces link flits whose delay expired.
func (r *router) drainLinks() {
	for p := 0; p < numPorts; p++ {
		l := r.outLink[p]
		if l == nil || len(l.inflight) == 0 {
			continue
		}
		keep := l.inflight[:0]
		for _, lf := range l.inflight {
			if lf.at <= r.net.now {
				l.dst.acceptFlit(l.dstPort, lf.vc, lf.f)
				r.linkLoad--
			} else {
				keep = append(keep, lf)
			}
		}
		l.inflight = keep
	}
	if r.linkLoad == 0 {
		r.net.linkBusy.remove(r.id)
	}
}

// allocate performs combined route computation, VC allocation and switch
// allocation for all output ports of this router in one cycle, moving at
// most one flit per output port.
//
// Each output port arbitrates round-robin over the flattened (inputPort, vc)
// space starting at rr[outPort]. That rotated order is six runs of VCs: the
// pointer's own port from its VC up, the four other ports in full, then the
// pointer's port below its VC. Each run is walked as a bitmask of the VCs
// that hold a flit and are either routed to outPort or not routed yet. The
// VCs left out — empty ones and those routed elsewhere — are exactly the
// ones a full scan would pass over without side effects, so the visit order
// over the rest, and with it the cycle at which each head flit is routed, is
// that of the full scan (reference_test.go keeps it and
// TestDifferentialAgainstReference holds the two equal). An output port with
// no bidder at all is passed over for the same reason.
func (r *router) allocate() {
	vcs := r.net.cfg.VCs
	for outPort := 0; outPort < numPorts; outPort++ {
		bidders := r.reqPorts[outPort]
		if r.net.now >= r.unroutedReady {
			bidders |= r.reqPorts[portUnrouted]
		}
		if bidders&^(1<<outPort) == 0 {
			continue // no bidder (U-turns never occur under minimal routing)
		}
		inPort, v0 := r.rr[outPort]/vcs, r.rr[outPort]%vcs
		below := uint16(1)<<v0 - 1 // the pointer port's VCs that come last
	scan:
		for run := 0; run <= numPorts; run++ {
			m := r.req[outPort][inPort] | r.req[portUnrouted][inPort]
			switch {
			case inPort == outPort:
				m = 0 // no U-turns
			case run == 0:
				m &^= below
			case run == numPorts:
				m &= below
			}
			for ; m != 0; m &= m - 1 {
				vc := bits.TrailingZeros16(m)
				if r.tryForward(outPort, inPort, vc) {
					r.rr[outPort] = (inPort*vcs + vc + 1) % (numPorts * vcs)
					break scan // one flit per output port per cycle
				}
			}
			if inPort++; inPort == numPorts {
				inPort = 0
			}
		}
	}
}

// tryForward lets the head-of-queue flit of input (inPort, vc) bid for
// outPort: it routes a ready, unrouted head flit — lazily, here, because
// west-first routing reads the credits as they stand at this point of the
// scan — and, if the packet does head for outPort, allocates a downstream VC
// and moves the flit. It reports whether a flit moved.
func (r *router) tryForward(outPort, inPort, vc int) bool {
	b := &r.in[inPort][vc]
	f := &b.q[b.head]
	if f.readyAt > r.net.now {
		return false
	}
	if b.outPort == portUnrouted {
		b.outPort = r.route(f.pkt)
		r.clearReq(portUnrouted, inPort, vc)
		r.setReq(b.outPort, inPort, vc)
		r.net.power.routeComps++
	}
	if b.outPort != outPort {
		return false
	}
	if f.isHead && !b.granted && !r.grantVC(b, f.pkt) {
		return false // no free downstream VC this cycle
	}
	return r.forward(inPort, vc, b) // false: no credit this cycle
}

// grantVC tries to allocate a downstream VC for the packet heading out of
// b.outPort. It reports success and records the grant in b.outVC. The local
// ejection port has no downstream buffers and therefore needs no VC.
func (r *router) grantVC(b *vcBuf, p *packet) bool {
	if b.outPort == portLocal {
		b.outVC = 0
		b.granted = true
		return true
	}
	lo, hi := r.vcRange(p.msg.Class)
	if r.net.torus {
		// Dateline discipline: exactly one VC before the wrap crossing,
		// the other after. This breaks the ring cycle each unidirectional
		// torus dimension would otherwise form.
		if p.crossedWrap {
			lo++
		}
		hi = min(hi, lo+1)
	}
	for v := lo; v < hi; v++ {
		if !r.outBusy[b.outPort][v] {
			r.outBusy[b.outPort][v] = true
			b.outVC = v
			b.granted = true
			r.net.power.vcAllocs++
			return true
		}
	}
	return false
}

// forward moves the head-of-queue flit of b — input (inPort, vc) — through
// the crossbar to b.outPort, consuming one credit. It reports whether the
// flit moved.
func (r *router) forward(inPort, vc int, b *vcBuf) bool {
	out := b.outPort
	f := b.q[b.head]
	if out == portLocal {
		// Ejection: the local port has unbounded sink bandwidth per VC
		// (standard simplification; endpoint contention is modelled in
		// the protocol layer above).
		r.popFlit(inPort, vc, b)
		r.net.eject(r.id, f)
		return true
	}
	if r.outCredit[out][b.outVC] <= 0 {
		return false
	}
	r.outCredit[out][b.outVC]--
	l := r.outLink[out]
	if f.isHead {
		f.pkt.hops++
		if l.wrap {
			f.pkt.crossedWrap = true
		}
	}
	r.send(l, linkFlit{at: r.net.now + l.delay, vc: b.outVC, f: f})
	r.popFlit(inPort, vc, b)
	r.net.power.xbarTraversals++
	r.net.power.linkTraversals++
	return true
}

// popFlit removes the forwarded flit from the head of b — input (inPort,
// vc) — returning the credit upstream and releasing the VC on tail
// departure.
func (r *router) popFlit(inPort, vc int, b *vcBuf) {
	isTail := b.q[b.head].isTail
	if b.head++; b.head == len(b.q) {
		b.head = 0
	}
	b.n--
	if b.n == 0 {
		r.clearReq(b.outPort, inPort, vc)
	}
	if r.occupancy--; r.occupancy == 0 {
		r.net.bufBusy.remove(r.id)
	}
	r.net.power.bufferReads++
	// Return one credit and, on tail, the VC itself to the upstream
	// mirror of this input buffer.
	if up := &r.upstream[inPort]; up.r != nil {
		up.r.outCredit[up.port][vc]++
		if isTail {
			up.r.outBusy[up.port][vc] = false
		}
	}
	if isTail {
		// The ring is empty here: the next head cannot arrive before
		// this release (acceptFlit enforces it).
		b.owner = nil
		b.outPort = portUnrouted
		b.granted = false
	}
}
