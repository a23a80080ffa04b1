package enoc

// route computes the output port for a packet at router r. Deterministic XY
// first crosses the X dimension, then Y, which is deadlock-free on a mesh.
// West-first is the classic partially adaptive turn model: any packet that
// must travel west does so first (deterministically); all remaining
// directions are chosen adaptively by downstream credit availability.
func (r *router) route(p *packet) int {
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

// routeTorus is dimension-ordered shortest-direction routing on the torus,
// maintaining the packet's dateline state: the wrap-crossing flag resets
// when the packet turns from the X ring into the Y ring.
func (r *router) routeTorus(p *packet, dx, dy int) int {
	w := r.net.width
	// Shorten each displacement through the wraparound when profitable;
	// ties break toward the positive direction deterministically.
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
	lo, hi := r.vcRange(p.msg.Class)
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
