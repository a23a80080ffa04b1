package enoc

import (
	"fmt"
	"math/bits"

	"onocsim/internal/config"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// The mesh's fixed microarchitecture. No study varies these, so they are
// constants of the model rather than options of the config document
// (DESIGN §12).
const (
	// FlitBytes is the physical link width per cycle. It also prices
	// synthetic offered load on every fabric (workload.RunSynthetic).
	FlitBytes = 16
	// BufDepth is the flit buffer depth per VC, a power of two: the VC
	// rings index modulo it.
	BufDepth = 4
	// RouterStages is the per-hop router pipeline latency in cycles.
	RouterStages sim.Tick = 2
	// LinkCycles is the per-hop wire traversal latency in cycles.
	LinkCycles sim.Tick = 1
	// ClockGHz is the mesh clock the power report converts cycles to
	// seconds at.
	ClockGHz = 2.0
)

// Network is the electrical mesh fabric (optionally a torus). It implements
// noc.Network.
type Network struct {
	cfg   config.Mesh
	width int
	nodes int
	torus bool
	// routeAtBid is set for west-first routing on the mesh, which picks a
	// head's output port by the downstream credits as the allocator's scan
	// finds them: such a head is routed when it first bids, not when it
	// becomes ready as XY and torus heads are (router.ready).
	routeAtBid bool
	// bufDepth and linkCycles are BufDepth and LinkCycles, or the values a
	// package test sweeps.
	bufDepth   int
	linkCycles sim.Tick

	now     sim.Tick
	deliver noc.DeliverFunc
	stats   noc.Stats
	power   powerCounters

	routers []*router
	nis     []*netIface

	// selfQ holds Src==Dst messages pending their next-cycle delivery.
	selfQ noc.DeliveryQueue
	// inflight counts injected-but-undelivered packets (including
	// self-messages), so NextWake can tell a drained or self-message-only
	// mesh from a busy one.
	inflight int

	// bufBusy and niBusy are the routers with a bidding VC and the NIs
	// with packets to send: the only elements a Tick has to visit.
	bufBusy, niBusy nodeSet
	// wake holds each occupied input VC whose head flit is not ready yet,
	// due the cycle it becomes ready (router.ready).
	wake wakeRing
	// bids counts allocator bids (router.tryForward calls) since
	// construction or Reset; those that moved a flit are
	// power.bufferReads.
	bids uint64

	// pktFree recycles the per-message wormhole state: a packet dies at
	// ejection and is reborn at the next Inject, so a steady-state run
	// allocates nothing per message. Flits are values and need no pool.
	pktFree []*packet
}

// newPacket returns a recycled or fresh packet wrapping m.
func (n *Network) newPacket(m *noc.Message) *packet {
	var p *packet
	if l := len(n.pktFree); l > 0 {
		p = n.pktFree[l-1]
		n.pktFree[l-1] = nil
		n.pktFree = n.pktFree[:l-1]
	} else {
		p = new(packet)
	}
	*p = packet{msg: m, nflits: FlitsFor(m.Bytes), class: m.Class,
		dstX: int16(m.Dst % n.width), dstY: int16(m.Dst / n.width)}
	return p
}

// wakeRing files input VCs under the cycle their head flit becomes ready,
// one slot per cycle. A flit's readyAt is stamped on arrival, at most
// linkCycles + RouterStages after the cycle it was sent in, and a VC waits
// only for a head not ready by the next cycle, so every due time lies in
// (now+1, now+linkCycles+RouterStages]: a ring of more slots than that
// horizon never files two live cycles in one slot, and needs no overflow.
type wakeRing struct {
	slots [][]vcRef // slots[t&mask] holds the VCs due at cycle t, in push order
	mask  sim.Tick
}

// newWakeRing returns a ring of the smallest power of two of slots greater
// than horizon.
func newWakeRing(horizon sim.Tick) wakeRing {
	span := sim.Tick(1)
	for span <= horizon {
		span <<= 1
	}
	return wakeRing{slots: make([][]vcRef, span), mask: span - 1}
}

// Push files v due at cycle at, now being the current cycle. A due time
// outside (now+1, now+span) would share a slot with a live cycle, so it
// panics, as a credit violation does.
func (w *wakeRing) Push(at sim.Tick, v vcRef, now sim.Tick) {
	if at <= now+1 || at > now+w.mask {
		panic(fmt.Sprintf("enoc: wake at cycle %d from cycle %d is outside the ring's %d-cycle horizon", at, now, w.mask+1))
	}
	s := &w.slots[at&w.mask]
	*s = append(*s, v)
}

// Take empties the slot of cycle now and returns what it held, in push
// order. The slice stays valid through the cycle: every push lands in
// another slot.
func (w *wakeRing) Take(now sim.Tick) []vcRef {
	s := &w.slots[now&w.mask]
	due := *s
	*s = due[:0]
	return due
}

// Len returns the number of entries filed.
func (w *wakeRing) Len() int {
	n := 0
	for _, s := range w.slots {
		n += len(s)
	}
	return n
}

// Reset empties every slot and keeps its array.
func (w *wakeRing) Reset() {
	for i := range w.slots {
		w.slots[i] = w.slots[i][:0]
	}
}

// nodeSet is a set of node ids. Walking it with next visits members in
// ascending id order — the order Tick has always served routers and NIs in,
// which credit return between routers within a cycle depends on.
type nodeSet []uint64

func (s nodeSet) add(id int)    { s[id>>6] |= 1 << (id & 63) }
func (s nodeSet) remove(id int) { s[id>>6] &^= 1 << (id & 63) }

// next returns the smallest member ≥ id, or -1.
func (s nodeSet) next(id int) int {
	for w := id >> 6; w < len(s); w++ {
		if m := s[w] >> (id & 63); m != 0 {
			return id + bits.TrailingZeros64(m)
		}
		id = (w + 1) << 6
	}
	return -1
}

// New builds a width×width mesh where width² equals nodes. It panics on a
// non-square node count, matching the config validation contract.
func New(nodes int, cfg config.Mesh) *Network { return newMesh(nodes, cfg, BufDepth, LinkCycles) }

// newMesh is New with the given buffer depth, at most BufDepth, and link
// latency.
func newMesh(nodes int, cfg config.Mesh, bufDepth int, linkCycles sim.Tick) *Network {
	width := config.GridWidth(nodes)
	if width*width != nodes {
		panic(fmt.Sprintf("enoc: %d nodes is not a perfect square", nodes))
	}
	if bufDepth < 1 || bufDepth > BufDepth {
		panic(fmt.Sprintf("enoc: buffer depth %d outside [1, %d]", bufDepth, BufDepth))
	}
	torus := cfg.Topology == "torus"
	n := &Network{cfg: cfg, width: width, nodes: nodes, torus: torus, routeAtBid: !torus && cfg.Routing == "westfirst",
		bufDepth: bufDepth, linkCycles: linkCycles, selfQ: noc.NewDeliveryQueue(64),
		wake: newWakeRing(linkCycles + RouterStages)}
	words := (nodes + 63) / 64
	n.bufBusy, n.niBusy = make(nodeSet, words), make(nodeSet, words)
	n.routers = make([]*router, nodes)
	for id := 0; id < nodes; id++ {
		n.routers[id] = newRouter(id, id%width, id/width, n)
	}
	// Wire neighbor links and the upstream credit paths.
	connect := func(from *router, outPort int, to *router, inPort int, wrap bool) {
		from.outLink[outPort] = &link{delay: linkCycles, dst: to, dstPort: inPort, wrap: wrap}
		to.upstream[inPort] = upstreamRef{r: from, port: outPort}
	}
	for id := 0; id < nodes; id++ {
		r := n.routers[id]
		if r.y > 0 {
			connect(r, portNorth, n.routers[id-width], portSouth, false)
		} else if n.torus && width > 1 {
			connect(r, portNorth, n.routers[r.x+(width-1)*width], portSouth, true)
		}
		if r.y < width-1 {
			connect(r, portSouth, n.routers[id+width], portNorth, false)
		} else if n.torus && width > 1 {
			connect(r, portSouth, n.routers[r.x], portNorth, true)
		}
		if r.x < width-1 {
			connect(r, portEast, n.routers[id+1], portWest, false)
		} else if n.torus && width > 1 {
			connect(r, portEast, n.routers[r.y*width], portWest, true)
		}
		if r.x > 0 {
			connect(r, portWest, n.routers[id-1], portEast, false)
		} else if n.torus && width > 1 {
			connect(r, portWest, n.routers[r.y*width+width-1], portEast, true)
		}
	}
	n.nis = make([]*netIface, nodes)
	for id := 0; id < nodes; id++ {
		n.nis[id] = &netIface{node: id, net: n}
	}
	return n
}

// Nodes implements noc.Network.
func (n *Network) Nodes() int { return n.nodes }

// Now implements noc.Network.
func (n *Network) Now() sim.Tick { return n.now }

// Stats implements noc.Network.
func (n *Network) Stats() noc.Stats { return n.stats }

// SetDeliver implements noc.Network.
func (n *Network) SetDeliver(fn noc.DeliverFunc) { n.deliver = fn }

// Inject implements noc.Network.
func (n *Network) Inject(m *noc.Message) {
	if m.Src < 0 || m.Src >= n.nodes || m.Dst < 0 || m.Dst >= n.nodes {
		panic(fmt.Sprintf("enoc: message %d endpoints (%d->%d) out of range [0,%d)", m.ID, m.Src, m.Dst, n.nodes))
	}
	m.Inject = n.now
	n.stats.Injected++
	n.inflight++
	if m.Src == m.Dst {
		n.selfQ.Push(n.now+1, m)
		return
	}
	n.nis[m.Src].enqueue(n.newPacket(m))
}

// Tick implements noc.Network: the heads that became ready join their
// request rows, then allocation, then injection, in deterministic node
// order.
func (n *Network) Tick() {
	n.now++
	// Self-messages bypass the fabric with a one-cycle loopback latency.
	for n.selfQ.NextAt() <= n.now {
		m := n.selfQ.Pop()
		m.Arrive = n.now
		n.stats.CountDelivery(m)
		n.inflight--
		if n.deliver != nil {
			n.deliver(m)
		}
	}
	for _, v := range n.wake.Take(n.now) {
		n.routers[v.node].ready(int(v.bit), n.now)
	}
	for id := n.bufBusy.next(0); id >= 0; id = n.bufBusy.next(id + 1) {
		n.routers[id].allocate()
	}
	for id := n.niBusy.next(0); id >= 0; id = n.niBusy.next(id + 1) {
		n.nis[id].tryInject()
	}
}

// eject is called by a router's local port as flits complete; the tail flit
// delivers the message and returns its packet to the free list.
func (n *Network) eject(node int, f flit) {
	if !f.isTail {
		return
	}
	p := f.pkt
	m := p.msg
	if node != m.Dst {
		panic(fmt.Sprintf("enoc: message %d ejected at %d, expected %d", m.ID, node, m.Dst))
	}
	m.Arrive = n.now
	n.stats.CountDelivery(m)
	n.pktFree = append(n.pktFree, p)
	n.inflight--
	if n.deliver != nil {
		n.deliver(m)
	}
}

// NextWake implements noc.Network. With flits in routers or NIs the mesh
// does observable work every cycle, so the only skippable states are a
// fully drained fabric and one where the sole survivors are self-messages
// awaiting their fixed loopback delivery.
func (n *Network) NextWake() sim.Tick {
	if n.inflight == n.selfQ.Len() {
		return n.selfQ.NextAt()
	}
	return n.now + 1
}

// SkipTo implements noc.Network. In the skippable states (see NextWake) no
// router or NI holds live work — no flit is in flight, so the wake ring is
// empty — and the self-queue's delivery times are absolute cycles, so the
// skip is a pure clock jump.
func (n *Network) SkipTo(t sim.Tick) {
	if t > n.now {
		n.now = t
	}
}

// Reset implements noc.Resettable: clocks, statistics, power counters,
// queues, buffers, credits and arbitration pointers all return to their
// constructor values. Packets still in the fabric go back to the free list —
// a Reset need not wait for a drain — and the list and the queue and wake
// ring arrays survive: they hold only dead state and are the point of
// reusing the fabric.
func (n *Network) Reset() {
	n.now = 0
	n.stats = noc.Stats{}
	n.power = powerCounters{}
	n.bids = 0
	n.selfQ.Reset()
	n.inflight = 0
	clear(n.bufBusy)
	clear(n.niBusy)
	n.wake.Reset()
	// A packet in flight is freed where its tail flit is; one whose tail
	// has not left the NI yet, at the NI.
	depth := n.bufDepth
	for _, r := range n.routers {
		for p := 0; p < numPorts; p++ {
			for v := range r.in[p] {
				b := &r.in[p][v]
				for i := 0; i < b.n; i++ {
					if f := b.at(i); f.isTail {
						n.pktFree = append(n.pktFree, f.pkt)
					}
				}
				*b = vcBuf{outPort: portUnrouted}
				r.outCredit[p][v] = depth
				r.outBusy[p][v] = false
			}
		}
		r.rr = [numPorts]int{}
		r.req = [numPorts + 1]reqSet{}
		r.bidding = 0
		r.vcWait = [portLocal]reqSet{}
	}
	for _, ni := range n.nis {
		for c := range ni.classQ {
			q := &ni.classQ[c]
			for q.len() > 0 {
				n.pktFree = append(n.pktFree, q.pop())
			}
			if p := ni.sending[c].pkt; p != nil {
				n.pktFree = append(n.pktFree, p)
			}
			ni.sending[c] = sendState{}
		}
		ni.rr = 0
		ni.pending = 0
	}
}

// ZeroLoadLatency implements noc.Network: per-hop pipeline plus wire delay
// plus serialization, with one cycle of injection overhead.
func (n *Network) ZeroLoadLatency(src, dst, bytes int) sim.Tick {
	if src == dst {
		return 1
	}
	dx, dy := dst%n.width-src%n.width, dst/n.width-src/n.width
	if n.torus {
		dx, dy = ringDelta(dx, n.width), ringDelta(dy, n.width)
	}
	hops := abs(dx) + abs(dy)
	return sim.Tick(hops+1)*RouterStages + sim.Tick(hops)*n.linkCycles + sim.Tick(FlitsFor(bytes))
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// netIface is the per-node network interface: per-class injection queues,
// one flit injected per cycle, VC allocation against the local input port.
type netIface struct {
	node    int
	net     *Network
	classQ  [noc.NumClasses]pktQueue
	sending [noc.NumClasses]sendState
	rr      int
	// pending counts the packets queued or being sent; the interface is
	// in Network.niBusy exactly while it is non-zero.
	pending int
}

// pktQueue is a FIFO of packets popped by advancing a head index, so the
// backing array is reused rather than resliced away pop by pop.
type pktQueue struct {
	q    []*packet
	head int
}

func (q *pktQueue) len() int { return len(q.q) - q.head }

func (q *pktQueue) push(p *packet) {
	if q.head > 0 && len(q.q) == cap(q.q) {
		// Full with dead slots in front: slide down instead of growing.
		live := copy(q.q, q.q[q.head:])
		clear(q.q[live:])
		q.q, q.head = q.q[:live], 0
	}
	q.q = append(q.q, p)
}

func (q *pktQueue) pop() *packet {
	p := q.q[q.head]
	q.q[q.head] = nil
	if q.head++; q.head == len(q.q) {
		q.q, q.head = q.q[:0], 0
	}
	return p
}

// sendState tracks an in-progress packet injection; pkt == nil means idle.
// Stored by value inside the interface so starting a packet allocates
// nothing.
type sendState struct {
	pkt  *packet
	vc   int
	next int
}

func (ni *netIface) enqueue(p *packet) {
	c := p.msg.Class
	if c >= noc.NumClasses {
		panic(fmt.Sprintf("enoc: message %d has invalid class %d", p.msg.ID, c))
	}
	ni.classQ[c].push(p)
	ni.pending++
	ni.net.niBusy.add(ni.node)
}

// tryInject pushes at most one flit into the local router this cycle,
// round-robining across classes for fairness.
func (ni *netIface) tryInject() {
	r := ni.net.routers[ni.node]
	for k := 0; k < int(noc.NumClasses); k++ {
		c := noc.Class((ni.rr + k) % int(noc.NumClasses))
		if ni.injectClass(r, c) {
			ni.rr = (ni.rr + k + 1) % int(noc.NumClasses)
			return
		}
	}
}

// injectClass attempts one flit for class c; reports whether a flit moved.
func (ni *netIface) injectClass(r *router, c noc.Class) bool {
	st := &ni.sending[c]
	if st.pkt == nil {
		if ni.classQ[c].len() == 0 {
			return false
		}
		// Find a free local-input VC in this class's partition.
		lo, hi := r.vcRange(c)
		vc := -1
		for v := lo; v < hi; v++ {
			if r.in[portLocal][v].owner == nil && r.in[portLocal][v].n < ni.net.bufDepth {
				vc = v
				break
			}
		}
		if vc < 0 {
			return false
		}
		p := ni.classQ[c].pop()
		*st = sendState{pkt: p, vc: vc}
	}
	if r.in[portLocal][st.vc].n >= ni.net.bufDepth {
		return false
	}
	r.acceptFlit(portLocal, st.vc, flit{pkt: st.pkt, isHead: st.next == 0, isTail: st.next == st.pkt.nflits-1}, ni.net.now)
	st.next++
	if st.next == st.pkt.nflits {
		st.pkt = nil
		if ni.pending--; ni.pending == 0 {
			ni.net.niBusy.remove(ni.node)
		}
	}
	return true
}
