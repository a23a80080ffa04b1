package enoc

import (
	"fmt"

	"onocsim/internal/config"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// This file is the naive reference the production router is tested against:
// the per-cycle datapath exactly as it stood before the occupancy-driven
// rewrite — the full outPorts × (ports·VCs) allocation scan with a div/mod per
// slot, pointer flits in append/reslice queues, every router and NI visited
// every tick, and the appended-slice west-first candidate list. It is kept
// verbatim (types renamed, free lists and the Reset/Snapshot surface dropped)
// so TestDifferentialAgainstReference can prove the rewrite is bit-identical
// rather than merely golden-compatible. Do not optimise it.

type refFlit struct {
	pkt     *packet
	isHead  bool
	isTail  bool
	readyAt sim.Tick

	inPort     int
	vcAtRouter int
	vcOnWire   int
}

type refVCBuf struct {
	q       []*refFlit
	owner   *packet
	outPort int
	outVC   int
	routed  bool
	granted bool
}

type refLink struct {
	delay    sim.Tick
	dst      *refRouter
	dstPort  int
	wrap     bool
	inflight []refLinkFlit
}

type refLinkFlit struct {
	at sim.Tick
	f  *refFlit
}

type refUpstream struct {
	r    *refRouter
	port int
}

type refRouter struct {
	id, x, y int
	net      *refNetwork

	in        [numPorts][]refVCBuf
	outLink   [numPorts]*refLink
	outCredit [numPorts][]int
	outBusy   [numPorts][]bool
	upstream  [numPorts]*refUpstream
	rr        [numPorts]int

	occupancy int
	linkLoad  int
}

// selfMsg is a loopback message in the reference's own self-queue: the slice
// the production mesh kept before it moved onto noc.DeliveryQueue.
type selfMsg struct {
	at  sim.Tick
	msg *noc.Message
}

type refNetwork struct {
	cfg   config.Mesh
	width int
	nodes int
	torus bool

	bufDepth   int
	linkCycles sim.Tick

	now     sim.Tick
	deliver noc.DeliverFunc
	stats   *noc.Stats
	power   powerCounters

	routers  []*refRouter
	nis      []*refNI
	selfQ    []selfMsg
	inflight int
}

func newRefNetwork(nodes int, cfg config.Mesh, bufDepth int, linkCycles sim.Tick) *refNetwork {
	width := 1
	for width*width < nodes {
		width++
	}
	n := &refNetwork{cfg: cfg, width: width, nodes: nodes, torus: cfg.Topology == "torus",
		bufDepth: bufDepth, linkCycles: linkCycles, stats: noc.NewStats()}
	n.routers = make([]*refRouter, nodes)
	for id := 0; id < nodes; id++ {
		r := &refRouter{id: id, x: id % width, y: id / width, net: n}
		for p := 0; p < numPorts; p++ {
			r.in[p] = make([]refVCBuf, cfg.VCs)
			r.outCredit[p] = make([]int, cfg.VCs)
			r.outBusy[p] = make([]bool, cfg.VCs)
			for v := 0; v < cfg.VCs; v++ {
				r.outCredit[p][v] = bufDepth
			}
		}
		n.routers[id] = r
	}
	connect := func(from *refRouter, outPort int, to *refRouter, inPort int, wrap bool) {
		from.outLink[outPort] = &refLink{delay: linkCycles, dst: to, dstPort: inPort, wrap: wrap}
		to.upstream[inPort] = &refUpstream{r: from, port: outPort}
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
	n.nis = make([]*refNI, nodes)
	for id := 0; id < nodes; id++ {
		n.nis[id] = &refNI{node: id, net: n}
	}
	return n
}

func (n *refNetwork) Busy() bool { return n.inflight > 0 }

func (n *refNetwork) Inject(m *noc.Message) {
	m.Inject = n.now
	n.stats.Injected++
	n.inflight++
	if m.Src == m.Dst {
		n.selfQ = append(n.selfQ, selfMsg{at: n.now + 1, msg: m})
		return
	}
	n.nis[m.Src].enqueue(&packet{msg: m, nflits: FlitsFor(m.Bytes)})
}

func (n *refNetwork) Tick() {
	n.now++
	if len(n.selfQ) > 0 {
		keep := n.selfQ[:0]
		for _, s := range n.selfQ {
			if s.at <= n.now {
				s.msg.Arrive = n.now
				n.stats.RecordDelivery(s.msg)
				n.stats.HopCount.Add(0)
				n.inflight--
				if n.deliver != nil {
					n.deliver(s.msg)
				}
			} else {
				keep = append(keep, s)
			}
		}
		n.selfQ = keep
	}
	for _, r := range n.routers {
		r.drainLinks()
	}
	for _, r := range n.routers {
		r.allocate()
	}
	for _, ni := range n.nis {
		ni.tryInject()
	}
}

func (n *refNetwork) eject(node int, f *refFlit) {
	if !f.isTail {
		return
	}
	p := f.pkt
	m := p.msg
	if node != m.Dst {
		panic(fmt.Sprintf("enoc ref: message %d ejected at %d, expected %d", m.ID, node, m.Dst))
	}
	m.Arrive = n.now
	n.stats.RecordDelivery(m)
	n.stats.HopCount.Add(float64(p.hops))
	n.stats.QueueDelay.Add(float64(p.enterNI - m.Inject))
	n.inflight--
	if n.deliver != nil {
		n.deliver(m)
	}
}

func (r *refRouter) vcRange(c noc.Class) (lo, hi int) {
	vcs := r.net.cfg.VCs
	if vcs < int(noc.NumClasses) {
		return 0, vcs
	}
	lo = int(c) * vcs / int(noc.NumClasses)
	hi = (int(c) + 1) * vcs / int(noc.NumClasses)
	return lo, hi
}

func (r *refRouter) acceptFlit(port, vc int, f *refFlit) {
	b := &r.in[port][vc]
	if len(b.q) >= r.net.bufDepth {
		panic("enoc ref: input buffer overflow — credit protocol violated")
	}
	f.readyAt = r.net.now + RouterStages
	f.inPort = port
	f.vcAtRouter = vc
	if f.isHead {
		if b.owner != nil {
			panic("enoc ref: head flit arrived on busy VC — allocation protocol violated")
		}
		b.owner = f.pkt
		b.routed = false
		b.granted = false
	}
	b.q = append(b.q, f)
	r.occupancy++
	r.net.power.bufferWrites++
}

func (r *refRouter) drainLinks() {
	if r.linkLoad == 0 {
		return
	}
	for p := 0; p < numPorts; p++ {
		l := r.outLink[p]
		if l == nil || len(l.inflight) == 0 {
			continue
		}
		keep := l.inflight[:0]
		for _, lf := range l.inflight {
			if lf.at <= r.net.now {
				l.dst.acceptFlit(l.dstPort, lf.f.vcOnWire, lf.f)
				r.linkLoad--
			} else {
				keep = append(keep, lf)
			}
		}
		l.inflight = keep
	}
}

func (r *refRouter) allocate() {
	if r.occupancy == 0 {
		return
	}
	vcs := r.net.cfg.VCs
	slots := numPorts * vcs
	for outPort := 0; outPort < numPorts; outPort++ {
		start := r.rr[outPort]
		for k := 0; k < slots; k++ {
			s := (start + k) % slots
			inPort := s / vcs
			vc := s % vcs
			if inPort == outPort {
				continue // U-turns never occur under minimal routing
			}
			b := &r.in[inPort][vc]
			if len(b.q) == 0 {
				continue
			}
			f := b.q[0]
			if f.readyAt > r.net.now {
				continue
			}
			if f.isHead && !b.routed {
				b.outPort = r.route(f.pkt)
				b.routed = true
				r.net.power.routeComps++
			}
			if b.outPort != outPort {
				continue
			}
			if f.isHead && !b.granted {
				if !r.grantVC(b, f.pkt) {
					continue // no free downstream VC this cycle
				}
			}
			if !r.forward(b, f) {
				continue // no credit this cycle
			}
			r.rr[outPort] = (s + 1) % slots
			break // one flit per output port per cycle
		}
	}
}

func (r *refRouter) grantVC(b *refVCBuf, p *packet) bool {
	if b.outPort == portLocal {
		b.outVC = 0
		b.granted = true
		return true
	}
	lo, hi := r.vcRange(p.msg.Class)
	if r.net.torus {
		v := lo
		if p.crossedWrap {
			v = lo + 1
		}
		if v >= hi || r.outBusy[b.outPort][v] {
			return false
		}
		r.outBusy[b.outPort][v] = true
		b.outVC = v
		b.granted = true
		r.net.power.vcAllocs++
		return true
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

func (r *refRouter) forward(b *refVCBuf, f *refFlit) bool {
	out := b.outPort
	if out == portLocal {
		r.popFlit(b, f)
		r.net.eject(r.id, f)
		return true
	}
	if r.outCredit[out][b.outVC] <= 0 {
		return false
	}
	r.outCredit[out][b.outVC]--
	f.vcOnWire = b.outVC
	l := r.outLink[out]
	if l.wrap && f.isHead {
		f.pkt.crossedWrap = true
	}
	l.inflight = append(l.inflight, refLinkFlit{at: r.net.now + l.delay, f: f})
	r.linkLoad++
	r.popFlit(b, f)
	r.net.power.xbarTraversals++
	r.net.power.linkTraversals++
	if f.isHead {
		f.pkt.hops++
	}
	return true
}

func (r *refRouter) popFlit(b *refVCBuf, f *refFlit) {
	b.q = b.q[1:]
	r.occupancy--
	r.net.power.bufferReads++
	if up := r.upstream[f.inPort]; up != nil {
		up.r.outCredit[up.port][f.vcAtRouter]++
		if f.isTail {
			up.r.outBusy[up.port][f.vcAtRouter] = false
		}
	}
	if f.isTail {
		b.owner = nil
		b.routed = false
		b.granted = false
	}
}

func (r *refRouter) route(p *packet) int {
	dst := p.msg.Dst
	dx := dst%r.net.width - r.x
	dy := dst/r.net.width - r.y
	if dx == 0 && dy == 0 {
		return portLocal
	}
	if r.net.torus {
		return r.routeTorus(p, dx, dy)
	}
	if r.net.cfg.Routing == "westfirst" {
		return r.routeWestFirst(p, dx, dy)
	}
	return routeXY(dx, dy)
}

func (r *refRouter) routeTorus(p *packet, dx, dy int) int {
	w := r.net.width
	if dx > w/2 || (w%2 == 0 && dx == w/2) {
		dx -= w
	} else if dx < -w/2 || (w%2 == 0 && dx == -w/2) {
		dx += w
	}
	if dy > w/2 || (w%2 == 0 && dy == w/2) {
		dy -= w
	} else if dy < -w/2 || (w%2 == 0 && dy == -w/2) {
		dy += w
	}
	dim := int8(0)
	if dx == 0 {
		dim = 1
	}
	if p.lastDim != dim {
		p.crossedWrap = false
		p.lastDim = dim
	}
	return routeXY(dx, dy)
}

func (r *refRouter) routeWestFirst(p *packet, dx, dy int) int {
	if dx < 0 {
		return portWest
	}
	var candidates []int
	if dx > 0 {
		candidates = append(candidates, portEast)
	}
	if dy > 0 {
		candidates = append(candidates, portSouth)
	} else if dy < 0 {
		candidates = append(candidates, portNorth)
	}
	if len(candidates) == 1 {
		return candidates[0]
	}
	lo, hi := r.vcRange(p.msg.Class)
	best, bestCredits := candidates[0], -1
	for _, port := range candidates {
		credits := 0
		for v := lo; v < hi; v++ {
			credits += r.outCredit[port][v]
			if !r.outBusy[port][v] {
				credits += r.net.bufDepth
			}
		}
		if credits > bestCredits {
			best, bestCredits = port, credits
		}
	}
	return best
}

type refNI struct {
	node    int
	net     *refNetwork
	classQ  [noc.NumClasses][]*packet
	sending [noc.NumClasses]sendState
	rr      int
}

func (ni *refNI) enqueue(p *packet) {
	ni.classQ[p.msg.Class] = append(ni.classQ[p.msg.Class], p)
}

func (ni *refNI) tryInject() {
	r := ni.net.routers[ni.node]
	for k := 0; k < int(noc.NumClasses); k++ {
		c := noc.Class((ni.rr + k) % int(noc.NumClasses))
		if ni.injectClass(r, c) {
			ni.rr = (ni.rr + k + 1) % int(noc.NumClasses)
			return
		}
	}
}

func (ni *refNI) injectClass(r *refRouter, c noc.Class) bool {
	st := &ni.sending[c]
	if st.pkt == nil {
		if len(ni.classQ[c]) == 0 {
			return false
		}
		lo, hi := r.vcRange(c)
		vc := -1
		for v := lo; v < hi; v++ {
			if r.in[portLocal][v].owner == nil && len(r.in[portLocal][v].q) < ni.net.bufDepth {
				vc = v
				break
			}
		}
		if vc < 0 {
			return false
		}
		p := ni.classQ[c][0]
		ni.classQ[c][0] = nil
		ni.classQ[c] = ni.classQ[c][1:]
		p.enterNI = ni.net.now
		*st = sendState{pkt: p, vc: vc}
	}
	b := &r.in[portLocal][st.vc]
	if len(b.q) >= ni.net.bufDepth {
		return false
	}
	f := &refFlit{pkt: st.pkt}
	f.isHead = st.next == 0
	f.isTail = st.next == st.pkt.nflits-1
	r.acceptFlit(portLocal, st.vc, f)
	st.next++
	if st.next == st.pkt.nflits {
		st.pkt = nil
	}
	return true
}
