// Package enoc implements the baseline electrical Network-on-Chip: a 2-D
// mesh of wormhole routers with virtual channels, credit-based flow control,
// deterministic XY or partially adaptive west-first routing, and an
// Orion-class power model. It is the "baseline NOC simulator" of the paper's
// case study and one of the two study fabrics of the reproduction.
package enoc

import (
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// packet is the in-fabric representation of one noc.Message, broken into
// flits for wormhole switching.
type packet struct {
	msg    *noc.Message
	nflits int
	hops   int
	// enterNI is when the first flit left the injection queue; used for
	// the queue-delay statistic.
	enterNI sim.Tick

	// Torus dateline state: whether the packet crossed a wraparound link
	// in the dimension it is currently traversing (selects the escape
	// VC), and which dimension that is (0 = X, 1 = Y, -1 = none yet).
	crossedWrap bool
	lastDim     int8
}

// flit is the unit of switching and buffering. Flits are held by value in
// the VC rings and on the links: where a flit sits (router, input port, VC)
// is the ring that holds it, so it carries only what travels with it.
type flit struct {
	pkt     *packet
	readyAt sim.Tick // earliest cycle the current router may forward it
	isHead  bool
	isTail  bool
}

// FlitsFor computes the flit count for a payload size given the link width.
func FlitsFor(bytes, flitBytes int) int {
	if bytes <= 0 {
		return 1
	}
	n := (bytes + flitBytes - 1) / flitBytes
	if n < 1 {
		n = 1
	}
	return n
}

// Port indices of a mesh router.
const (
	portNorth = iota
	portSouth
	portEast
	portWest
	portLocal
	numPorts
)

var portNames = [numPorts]string{"north", "south", "east", "west", "local"}
