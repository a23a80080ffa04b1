package enoc

// route computes the output port for a packet at router r. Deterministic XY
// first crosses the X dimension, then Y, which is deadlock-free on a mesh.
// West-first is the classic partially adaptive turn model: any packet that
// must travel west does so first (deterministically); all remaining
// directions are chosen adaptively by downstream credit availability.
func (r *router) route(p *packet) int {
	dx, dy := int(p.dstX)-r.x, int(p.dstY)-r.y
	if dx == 0 && dy == 0 {
		return portLocal
	}
	if r.net.torus {
		return r.routeTorus(p, dx, dy)
	}
	if r.net.routeAtBid {
		return r.routeWestFirst(p, dx, dy)
	}
	return routeXY(dx, dy)
}

// routeTorus is dimension-ordered shortest-direction routing on the torus,
// maintaining the packet's dateline state: the wrap-crossing flag resets
// when the packet turns from the X ring into the Y ring.
func (r *router) routeTorus(p *packet, dx, dy int) int {
	dx, dy = ringDelta(dx, r.net.width), ringDelta(dy, r.net.width)
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

// ringDelta shortens a displacement d ∈ (−w, w) along a torus ring of width
// w through the wraparound when that is no longer. A half-ring tie (even w,
// |d| = w/2) takes the wraparound, against the sign of d. routeTorus, Route
// and ZeroLoadLatency all read this one rule.
func ringDelta(d, w int) int {
	if 2*abs(d) < w {
		return d
	}
	if d > 0 {
		return d - w
	}
	return d + w
}

// Route visits, in hop order, the directed links of the dimension-ordered
// route from src to dst, torus wraparound included: the route the xy router
// takes, and the one west-first takes where it does not adapt. A link is
// numbered node×4 + its output port, below Links().
func (n *Network) Route(src, dst int, visit func(link int)) {
	w := n.width
	dx, dy := dst%w-src%w, dst/w-src/w
	if n.torus {
		dx, dy = ringDelta(dx, w), ringDelta(dy, w)
	}
	for node := src; dx != 0 || dy != 0; {
		port := routeXY(dx, dy)
		visit(node*portLocal + port)
		node = n.routers[node].outLink[port].dst.id
		switch port {
		case portEast:
			dx--
		case portWest:
			dx++
		case portSouth:
			dy--
		default:
			dy++
		}
	}
}

// Links is the number of link ids Route numbers: four per node.
func (n *Network) Links() int { return n.nodes * portLocal }

// routeXY is dimension-ordered: X before Y.
func routeXY(dx, dy int) int {
	switch {
	case dx > 0:
		return portEast
	case dx < 0:
		return portWest
	case dy > 0:
		return portSouth
	default:
		return portNorth
	}
}

// routeWestFirst adaptively picks among productive non-west directions by
// free credit count once any westward travel is complete.
func (r *router) routeWestFirst(p *packet, dx, dy int) int {
	if dx < 0 {
		return portWest
	}
	vertical := portSouth
	if dy < 0 {
		vertical = portNorth
	}
	switch {
	case dy == 0:
		return portEast
	case dx == 0:
		return vertical
	}
	// Two productive ports, in a fixed tie-break order.
	candidates := [2]int{portEast, vertical}
	lo, hi := r.vcRange(p.class)
	best, bestCredits := candidates[0], -1
	for _, port := range candidates {
		credits := 0
		for v := lo; v < hi; v++ {
			credits += r.outCredit[port][v]
			if !r.outBusy[port][v] {
				credits += r.net.bufDepth // prefer ports with free VCs
			}
		}
		if credits > bestCredits {
			best, bestCredits = port, credits
		}
	}
	return best
}
