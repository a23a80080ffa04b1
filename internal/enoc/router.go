package enoc

import (
	"math/bits"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// portUnrouted is the outPort of a VC whose packet has no route at this
// router yet, and, under west-first routing only, the row of router.req that
// collects such VCs while they bid.
const portUnrouted = numPorts

// vcBuf is one virtual-channel input buffer.
type vcBuf struct {
	// q is a ring of flits held by value in the buffer itself, indexed
	// modulo BufDepth; at most Network.bufDepth of them are occupied. head
	// indexes the oldest flit, n counts them.
	q       [BufDepth]flit
	head, n int
	// owner is the packet currently allocated to this VC; a VC is busy
	// from head-flit allocation until its tail flit departs.
	owner *packet
	// outPort/outVC are the route decision for the owner packet. outPort
	// is computed once per packet at this router — when the head flit
	// becomes ready, or under west-first the first cycle allocate finds it
	// ready — and is portUnrouted until then.
	outPort int
	outVC   int
	granted bool
}

// at returns the i-th oldest slot of the ring; at(b.n) is where the next
// flit goes.
func (b *vcBuf) at(i int) *flit { return &b.q[(b.head+i)&(BufDepth-1)] }

// link models a point-to-point channel with a fixed traversal delay. A flit
// sent at cycle t enters the downstream input buffer at once, stamped with
// its arrival t+delay: the credit it spent reserved the slot, and its
// readyAt keeps it invisible until it has arrived. wrap marks torus
// wraparound links — the datelines of the VC discipline.
type link struct {
	delay   sim.Tick
	dst     *router
	dstPort int
	wrap    bool
}

// reqSet is a set of input VCs of one router: bit p<<4|v is input port p,
// VC v (the config caps VCs at 16). Ports 0–3 fill the first word, the local
// port the second.
type reqSet [2]uint64

func (s *reqSet) add(bit int)    { s[bit>>6] |= 1 << (bit & 63) }
func (s *reqSet) remove(bit int) { s[bit>>6] &^= 1 << (bit & 63) }

// vcRef names an input VC network-wide: its router and its reqSet bit.
type vcRef struct{ node, bit int32 }

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

	// rr are round-robin arbitration pointers, one per output port: the
	// reqSet bit its next scan starts from.
	rr [numPorts]int

	// req[o] is the set of input VCs that bid for output port o: their
	// head flit is ready (or will be next cycle, between ticks) and routed
	// to o. Row portUnrouted holds the bidding heads that still await
	// their route, which only west-first leaves for bid time. A VC whose
	// head is not ready waits on Network.wake instead, so allocate walks
	// only the VCs that can move a flit. The router is in Network.bufBusy
	// exactly while some row is non-empty. Bit o of bidding is set exactly
	// while row o is non-empty: every change to a row goes through bid and
	// unbid, or is popFlit's release of a wait set, which sets the bit.
	req     [numPorts + 1]reqSet
	bidding uint
	// vcWait[o] holds the heads routed to o that found every downstream VC
	// they may take busy. They leave req[o] until the downstream router
	// releases a VC of o (popFlit), since no bid of theirs can succeed
	// before that. The local port grants at once, so it has no wait set.
	vcWait [portLocal]reqSet
}

// upstreamRef points back at the fabric element feeding an input port.
type upstreamRef struct {
	r    *router
	port int
}

// initRouter sets up r over its share of the network's VC slabs: numPorts ×
// VCs buffers, credit counts and busy marks.
func initRouter(r *router, id, x, y int, net *Network, bufs []vcBuf, credits []int, busy []bool) {
	*r = router{id: id, x: x, y: y, net: net}
	vcs := net.cfg.VCs
	for i := range bufs {
		bufs[i].outPort = portUnrouted
		credits[i] = net.bufDepth
	}
	for p := 0; p < numPorts; p++ {
		lo, hi := p*vcs, (p+1)*vcs
		r.in[p], r.outCredit[p], r.outBusy[p] = bufs[lo:hi:hi], credits[lo:hi:hi], busy[lo:hi:hi]
	}
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

// acceptFlit appends a flit arriving on (port, vc) at cycle at to the input
// buffer. The caller is responsible for having respected credits; overflow
// is a flow control protocol violation and panics.
func (r *router) acceptFlit(port, vc int, f flit, at sim.Tick) {
	b := &r.in[port][vc]
	if b.n >= r.net.bufDepth {
		panic("enoc: input buffer overflow — credit protocol violated")
	}
	f.readyAt = at + RouterStages
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
	*b.at(b.n) = f
	if b.n++; b.n == 1 {
		r.ready(port<<4|vc, f.readyAt)
	}
}

// ready makes input VC bit, whose head flit is ready at cycle at, bid from
// then on: it joins its request row now if that is by the next cycle, and
// otherwise waits on the network's wake ring, which Tick empties into the
// rows before allocation. An unrouted head is routed here and joins the
// one row of its output port, unless west-first leaves its route to bid
// time (Network.routeAtBid).
func (r *router) ready(bit int, at sim.Tick) {
	if at > r.net.now+1 {
		r.net.wake.Push(at, vcRef{int32(r.id), int32(bit)}, r.net.now)
		return
	}
	b := &r.in[bit>>4][bit&15]
	if b.outPort == portUnrouted && !r.net.routeAtBid {
		b.outPort = r.route(b.owner)
		r.net.power.routeComps++
	}
	r.bid(b.outPort, bit)
	r.net.bufBusy.add(r.id)
}

// bid adds input VC bit to request row o.
func (r *router) bid(o, bit int) {
	r.req[o].add(bit)
	r.bidding |= 1 << o
}

// unbid removes input VC bit from request row o.
func (r *router) unbid(o, bit int) {
	if r.req[o].remove(bit); r.req[o] == (reqSet{}) {
		r.bidding &^= 1 << o
	}
}

// allocate performs combined route computation, VC allocation and switch
// allocation for all output ports of this router in one cycle, moving at
// most one flit per output port.
//
// Each output port arbitrates round-robin over the input VCs in reqSet bit
// order, starting at rr[outPort] and wrapping: the bits of its row and of
// the unrouted row at or above the pointer, then those below it. The VCs
// left out — empty ones, not-ready heads, those routed elsewhere and heads
// waiting for a downstream VC — are exactly the ones a full scan would pass
// over without side effects, so the visit order over the rest, and with it
// the cycle at which each west-first head flit is routed, is that of the
// full scan (reference_test.go keeps it and TestDifferentialAgainstReference
// holds the two equal). An output port with no bidder at all is passed over
// for the same reason.
func (r *router) allocate() {
	// Only the ports with a bidder now arbitrate: no other port gains one
	// before its turn. A move re-adds only its own VC, to its own row, and
	// only routing a head of the unrouted row fills another row; while
	// that row has heads, every port arbitrates.
	rows := r.bidding
	if rows&(1<<portUnrouted) != 0 {
		rows = 1<<numPorts - 1
	}
	for ; rows != 0; rows &= rows - 1 {
		outPort := bits.TrailingZeros(rows)
		m := r.req[outPort]
		if un := r.req[portUnrouted]; un != (reqSet{}) {
			// A head still to be routed bids for every port but the one
			// it came in on: no U-turns under minimal routing, which is
			// also why no routed row holds a VC of its own port.
			self := outPort << 4
			m[0] |= un[0]
			m[1] |= un[1]
			m[self>>6] &^= 0xffff << (self & 63)
		}
		if m == (reqSet{}) {
			continue
		}
		var lo reqSet // the bits below the pointer, which come last
		if s := r.rr[outPort]; s < 64 {
			lo[0] = 1<<s - 1
		} else {
			lo = reqSet{^uint64(0), 1<<(s-64) - 1}
		}
	scan:
		for k, w := range [4]uint64{m[0] &^ lo[0], m[1] &^ lo[1], m[0] & lo[0], m[1] & lo[1]} {
			for ; w != 0; w &= w - 1 {
				bit := (k&1)<<6 | bits.TrailingZeros64(w)
				if r.tryForward(outPort, bit>>4, bit&15) {
					r.rr[outPort] = bit + 1
					break scan // one flit per output port per cycle
				}
			}
		}
	}
	if r.bidding == 0 {
		r.net.bufBusy.remove(r.id)
	}
}

// tryForward lets the ready head-of-queue flit of input (inPort, vc) bid for
// outPort: it routes an unrouted west-first head flit — lazily, here,
// because west-first routing reads the credits as they stand at this point
// of the scan — and, if the packet does head for outPort, allocates a
// downstream VC and moves the flit. A head refused a VC leaves the row for
// the wait set until a VC of outPort is released. It reports whether a flit
// moved.
func (r *router) tryForward(outPort, inPort, vc int) bool {
	r.net.bids++
	b := &r.in[inPort][vc]
	f := &b.q[b.head]
	bit := inPort<<4 | vc
	if b.outPort == portUnrouted {
		b.outPort = r.route(f.pkt)
		r.unbid(portUnrouted, bit)
		r.bid(b.outPort, bit)
		r.net.power.routeComps++
	}
	if b.outPort != outPort {
		return false
	}
	if f.isHead && !b.granted && !r.grantVC(b, f.pkt) {
		r.unbid(outPort, bit)
		r.vcWait[outPort].add(bit)
		return false
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
	lo, hi := r.vcChoices(p)
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

// vcChoices returns the half-open range of downstream VCs grantVC may give a
// head of p at a neighbour: its class's range, narrowed on the torus by the
// dateline discipline to exactly one VC before the wrap crossing and the
// other after. That breaks the ring cycle each unidirectional torus
// dimension would otherwise form.
func (r *router) vcChoices(p *packet) (lo, hi int) {
	lo, hi = r.vcRange(p.class)
	if r.net.torus {
		if p.crossedWrap {
			lo++
		}
		hi = min(hi, lo+1)
	}
	return lo, hi
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
	if f.isHead && l.wrap {
		f.pkt.crossedWrap = true
	}
	l.dst.acceptFlit(l.dstPort, b.outVC, f, r.net.now+l.delay)
	r.popFlit(inPort, vc, b)
	r.net.power.xbarTraversals++
	r.net.power.linkTraversals++
	return true
}

// popFlit removes the forwarded flit from the head of b — input (inPort,
// vc) — returning the credit upstream and releasing the VC on tail
// departure. The next flit, if any, keeps the VC bidding only if it is
// ready by the next cycle; otherwise the VC waits for it on the wake ring.
//
// A release puts the upstream heads waiting for a VC of that output back in
// its request row. One that cannot take the freed VC (another class, the
// other dateline VC) fails its next bid and waits again. The upstream router
// rejoins bufBusy: if it comes later in this tick's node order it allocates
// this cycle, as it would have had its heads bid throughout.
func (r *router) popFlit(inPort, vc int, b *vcBuf) {
	isTail := b.q[b.head].isTail
	b.head = (b.head + 1) & (BufDepth - 1)
	b.n--
	r.unbid(b.outPort, inPort<<4|vc)
	if b.n > 0 {
		r.ready(inPort<<4|vc, b.q[b.head].readyAt)
	}
	r.net.power.bufferReads++
	// Return one credit and, on tail, the VC itself to the upstream
	// mirror of this input buffer.
	if up := &r.upstream[inPort]; up.r != nil {
		up.r.outCredit[up.port][vc]++
		if isTail {
			up.r.outBusy[up.port][vc] = false
			if w := &up.r.vcWait[up.port]; *w != (reqSet{}) {
				up.r.req[up.port][0] |= w[0]
				up.r.req[up.port][1] |= w[1]
				up.r.bidding |= 1 << up.port
				*w = reqSet{}
				r.net.bufBusy.add(up.r.id)
			}
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
