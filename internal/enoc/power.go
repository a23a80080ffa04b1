package enoc

import (
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// powerCounters tallies the microarchitectural events that the dynamic power
// model charges for. They are incremented inline by the router datapath.
type powerCounters struct {
	bufferWrites   uint64
	bufferReads    uint64
	xbarTraversals uint64
	linkTraversals uint64
	vcAllocs       uint64
	routeComps     uint64
}

// Orion-2-class per-event energies for a FlitBytes (16-byte) flit at a
// 32nm-era process, in picojoules. These are the canonical constants used by
// 2012-era NoC papers; absolute values are not the point of the reproduction
// — the electrical-vs-optical *shape* is.
const (
	eBufferWritePJ     = 1.2
	eBufferReadPJ      = 1.0
	eXbarPJ            = 2.0
	eLinkPJ            = 3.0
	eVCAllocPJ         = 0.2
	eRoutePJ           = 0.1
	leakagePerRouterMW = 1.5
	leakagePerLinkMW   = 0.12
)

// PowerReport implements noc.Network. elapsed is the measurement window in
// cycles of the ClockGHz mesh clock.
func (n *Network) PowerReport(elapsed sim.Tick) noc.PowerReport {
	c := &n.power
	buffers := float64(c.bufferWrites)*eBufferWritePJ + float64(c.bufferReads)*eBufferReadPJ
	xbar := float64(c.xbarTraversals) * eXbarPJ
	links := float64(c.linkTraversals) * eLinkPJ
	alloc := float64(c.vcAllocs)*eVCAllocPJ + float64(c.routeComps)*eRoutePJ
	totalPJ := buffers + xbar + links + alloc

	seconds := float64(elapsed) / (ClockGHz * 1e9)
	dynMW := 0.0
	if seconds > 0 {
		// pJ / s = 1e-12 W = 1e-9 mW.
		dynMW = totalPJ * 1e-9 / seconds
	}
	numLinks := 2 * 2 * n.width * (n.width - 1) // bidirectional, both dims
	static := leakagePerRouterMW*float64(n.nodes) + leakagePerLinkMW*float64(numLinks)
	toMW := func(pj float64) float64 {
		if seconds <= 0 {
			return 0
		}
		return pj * 1e-9 / seconds
	}
	return noc.PowerReport{
		StaticMW:  static,
		DynamicMW: dynMW,
		Breakdown: map[string]float64{
			"buffers_mw":  toMW(buffers),
			"crossbar_mw": toMW(xbar),
			"links_mw":    toMW(links),
			"control_mw":  toMW(alloc),
			"leakage_mw":  static,
		},
	}
}
