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
	// dstX, dstY and class are the destination's grid coordinates and
	// the message class, copied from msg at injection so that routing and
	// VC allocation read only the packet.
	dstX, dstY int16
	class      noc.Class

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

// FlitsFor computes the flit count of a payload: at least one flit of
// FlitBytes.
func FlitsFor(bytes int) int {
	if bytes <= 0 {
		return 1
	}
	return (bytes + FlitBytes - 1) / FlitBytes
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
