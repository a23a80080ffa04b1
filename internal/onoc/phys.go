package onoc

import (
	"fmt"

	"onocsim/internal/config"
	"onocsim/internal/fault"
	"onocsim/internal/noc"
	"onocsim/internal/photonics"
	"onocsim/internal/sim"
)

// The photonic layer's fixed device and geometry parameters. No study varies
// these, so they are constants of the model rather than options of the config
// document (DESIGN §12). The line rate enters the model only as channel
// capacity, WavelengthsPerChannel × GbpsPerWavelength / ClockGHz bits per
// cycle, which the wavelengths option already varies.
const (
	// GbpsPerWavelength is the modulation rate of one wavelength.
	GbpsPerWavelength = 10.0
	// ClockGHz is the system clock: it converts line rate into channel
	// capacity, and cycles into seconds for the power report.
	ClockGHz = 2.0
	// PropagationCyclesAcross is the light propagation time across the
	// full die (worst case); per-pair delay scales with hop distance.
	PropagationCyclesAcross = 8
	// OEOverheadCycles is modulation + detection + serdes overhead per
	// message at the endpoints.
	OEOverheadCycles sim.Tick = 3
	// DieEdgeCm is the physical die edge used by the loss budget.
	DieEdgeCm = 2.0
)

// phys is the photonic physical layer both crossbars are built on: the clock,
// the statistics and callbacks, channel serialization with its thermal-drift
// and laser-droop degradations, light propagation along the serpentine, the
// arrival queue and the energy counters. What a crossbar adds is its
// arbitration rule — who may modulate onto which channel, and when: Network
// circulates a token per reader (MWSR), SWMR serializes each writer behind
// itself. Arbitration hands a message that has won its channel to launch;
// everything before (admit) and after (deliverDue) is the same on both.
type phys struct {
	nodes int

	now     sim.Tick
	deliver noc.DeliverFunc
	stats   noc.Stats

	ser serTable
	// Fault injection (nil / empty when the config carries no faults).
	// faults schedules token losses and thermal drift windows; serDrift is
	// the serialization table at drift-degraded channel capacity; derate
	// maps serpentine hop count → rate-derating factor for lightpaths that
	// no longer close at full rate under laser droop (nil when none do).
	faults   *fault.Injector
	serDrift serTable
	derate   []sim.Tick
	// prop maps serpentine hop count → light propagation cycles.
	prop []sim.Tick

	arrivals noc.DeliveryQueue

	// Power accounting.
	devices  photonics.DeviceParams
	budget   photonics.Budget
	bitsSent uint64
}

// serTable memoizes payload-size → channel-occupancy conversions. Protocol
// traffic uses a handful of distinct sizes, so the per-transmission float
// division folds into a table lookup.
type serTable struct {
	// bitsPerCycle is the aggregate capacity of one channel.
	bitsPerCycle float64
	tab          []sim.Tick
}

func (t *serTable) cycles(bytes int) sim.Tick {
	if bytes >= 0 && bytes < len(t.tab) {
		if c := t.tab[bytes]; c > 0 {
			return c
		}
	}
	bits := float64(bytes) * 8
	c := sim.Tick(bits / t.bitsPerCycle)
	if float64(c)*t.bitsPerCycle < bits {
		c++
	}
	if c < 1 {
		c = 1
	}
	if bytes >= 0 && bytes < 1<<16 {
		if bytes >= len(t.tab) {
			grown := make([]sim.Tick, bytes+1)
			copy(grown, t.tab)
			t.tab = grown
		}
		t.tab[bytes] = c
	}
	return c
}

// newPhys resolves the photonic budget and the serialization, drift and droop
// tables. The fault schedule derives from seed and the fault parameters only,
// so two fabrics built with equal (nodes, cfg, faults, seed) observe identical
// fault timelines: an overlapped correction round's fabric sees the faults
// the round before it saw.
func newPhys(nodes int, cfg config.Optical, faults config.Faults, seed uint64) phys {
	if nodes < 2 {
		panic(fmt.Sprintf("onoc: need ≥2 nodes, got %d", nodes))
	}
	bpc := float64(cfg.WavelengthsPerChannel) * GbpsPerWavelength / ClockGHz
	if bpc <= 0 {
		panic("onoc: non-positive channel capacity")
	}
	p := phys{
		nodes:   nodes,
		ser:     serTable{bitsPerCycle: bpc},
		devices: photonics.DefaultDeviceParams(),
		faults:  fault.New(nodes, faults, seed),
		// O/E, serialization, propagation: tens of cycles for protocol messages
		arrivals: noc.NewDeliveryQueue(128),
		prop:     make([]sim.Tick, nodes),
	}
	for hops := range p.prop {
		p.prop[hops] = max(sim.Tick(int64(hops)*PropagationCyclesAcross/int64(nodes)), 1)
	}
	geom := photonics.CrossbarGeometry{
		Nodes:                 nodes,
		WavelengthsPerChannel: cfg.WavelengthsPerChannel,
		DieEdgeCm:             DieEdgeCm,
	}
	budget, err := photonics.ComputeBudgetWithDroop(p.devices, geom, faults.LaserDroopDB)
	if err != nil {
		panic("onoc: " + err.Error())
	}
	p.budget = budget
	if faults.ThermalMTBF > 0 {
		// A drift window detunes ThermalDetune of the channel's rings;
		// at least one wavelength always survives.
		avail := cfg.WavelengthsPerChannel - int(float64(cfg.WavelengthsPerChannel)*faults.ThermalDetune)
		if avail < 1 {
			avail = 1
		}
		p.serDrift = serTable{bitsPerCycle: bpc * float64(avail) / float64(cfg.WavelengthsPerChannel)}
	}
	// The physics of droop derating lives in photonics.RateDerateTable (shared
	// with the closed-form analytic model), converted here into fabric ticks.
	// It returns nil when every path still closes at full rate, which keeps
	// the fault-free fast path branch-free.
	if raw := photonics.RateDerateTable(p.devices, geom, budget, faults.LaserDroopDB); raw != nil {
		p.derate = make([]sim.Tick, len(raw))
		for i, v := range raw {
			p.derate[i] = sim.Tick(v)
		}
	}
	return p
}

// Nodes implements noc.Network.
func (p *phys) Nodes() int { return p.nodes }

// Now implements noc.Network.
func (p *phys) Now() sim.Tick { return p.now }

// Stats implements noc.Network.
func (p *phys) Stats() noc.Stats { return p.stats }

// SetDeliver implements noc.Network.
func (p *phys) SetDeliver(fn noc.DeliverFunc) { p.deliver = fn }

// SkipTo implements noc.Network. Arrival times and every arbitration stamp
// (tokenReady, chanFree) are absolute and t is below NextWake, so the skip is
// a pure clock jump.
func (p *phys) SkipTo(t sim.Tick) {
	if t > p.now {
		p.now = t
	}
}

// Budget exposes the resolved static photonic budget for reporting.
func (p *phys) Budget() photonics.Budget { return p.budget }

// SerializationCycles returns the nominal (fault-free) channel occupancy of
// a payload.
func (p *phys) SerializationCycles(bytes int) sim.Tick { return p.ser.cycles(bytes) }

// DerateFactor returns the serialization multiplier laser droop imposes on
// the src→dst lightpath (1 when the path still closes at full rate). The
// hybrid fabric consults it to reroute blacklisted pairs over the mesh.
func (p *phys) DerateFactor(src, dst int) sim.Tick {
	if p.derate == nil || src == dst {
		return 1
	}
	return p.derate[p.hops(src, dst)]
}

// hops is the serpentine distance from src downstream to dst.
func (p *phys) hops(src, dst int) int {
	if h := dst - src; h >= 0 {
		return h
	}
	return dst - src + p.nodes
}

// propagation returns the light travel time from src to the reader dst along
// the serpentine (messages travel downstream only).
func (p *phys) propagation(src, dst int) sim.Tick { return p.prop[p.hops(src, dst)] }

// admit stamps an injected message and reports whether arbitration has to
// queue it: a self-message goes straight to the arrival queue, due next cycle.
func (p *phys) admit(m *noc.Message) bool {
	if m.Src < 0 || m.Src >= p.nodes || m.Dst < 0 || m.Dst >= p.nodes {
		panic(fmt.Sprintf("onoc: message %d endpoints (%d->%d) out of range [0,%d)", m.ID, m.Src, m.Dst, p.nodes))
	}
	m.Inject = p.now
	p.stats.Injected++
	if m.Src == m.Dst {
		p.arrivals.Push(p.now+1, m)
		return false
	}
	return true
}

// launch starts transmitting m, which has just won channel ch (its reader on
// MWSR, its writer on SWMR), and returns how long the channel stays occupied.
// The occupancy reflects the fault state at this instant: an active thermal
// drift window shrinks the channel's usable WDM degree, and laser droop
// derates lightpaths whose loss no longer fits the shrunken margin. Both
// degrade bandwidth gracefully — the message still goes through, just slower.
func (p *phys) launch(m *noc.Message, ch int) sim.Tick {
	var ser sim.Tick
	if p.faults.DriftAt(ch, p.now) {
		ser = p.serDrift.cycles(m.Bytes)
		p.stats.Faults.DriftedSends++
	} else {
		ser = p.ser.cycles(m.Bytes)
	}
	if f := p.DerateFactor(m.Src, m.Dst); f > 1 {
		ser *= f
		p.stats.Faults.DeratedSends++
	}
	p.arrivals.Push(p.now+OEOverheadCycles+ser+p.propagation(m.Src, m.Dst), m)
	p.bitsSent += uint64(m.Bytes) * 8
	return ser
}

// deliverDue hands over every arrival due at the current cycle.
func (p *phys) deliverDue() {
	for p.arrivals.NextAt() <= p.now {
		m := p.arrivals.Pop()
		m.Arrive = p.now
		p.stats.CountDelivery(m)
		if p.deliver != nil {
			p.deliver(m)
		}
	}
}

// zeroLoad is the uncontended latency after an expected arbitration wait:
// O/E overhead, serialization and propagation. Laser droop is a static
// degradation, so the estimate reflects it; transient faults (drift, token
// loss) do not shift the expectation and are charged only when they fire.
func (p *phys) zeroLoad(src, dst, bytes int, arbWait sim.Tick) sim.Tick {
	if src == dst {
		return 1
	}
	ser := p.ser.cycles(bytes) * p.DerateFactor(src, dst)
	return arbWait + OEOverheadCycles + ser + p.propagation(src, dst)
}

// reset returns clock, counters, arrivals and energy counters to their
// constructor values. The static photonic budget is untouched (it depends
// only on geometry), and so are the fault timelines: they are pure functions
// of (seed, faults, channel), so their lazily-materialized windows persist and
// replay identically in the next round.
func (p *phys) reset() {
	p.now = 0
	p.stats = noc.Stats{}
	p.arrivals.Reset()
	p.bitsSent = 0
}

// powerReport resolves static laser + ring tuning power from the photonic
// budget and dynamic modulation/reception energy over the window of elapsed
// ClockGHz cycles; arbitrationPJ are the energy terms the arbitration rule
// adds, in picojoules.
func (p *phys) powerReport(elapsed sim.Tick, arbitrationPJ ...float64) noc.PowerReport {
	dynPJ := p.devices.DynamicEnergyPJ(int64(p.bitsSent))
	for _, pj := range arbitrationPJ {
		dynPJ += pj
	}
	dynMW := 0.0
	if seconds := float64(elapsed) / (ClockGHz * 1e9); seconds > 0 {
		dynMW = dynPJ * 1e-9 / seconds
	}
	breakdown := map[string]float64{
		"laser_mw":     p.budget.LaserPowerMW,
		"tuning_mw":    p.budget.TuningPowerMW,
		"endpoints_mw": dynMW,
	}
	if p.budget.LaserDroopDB > 0 {
		breakdown["laser_droop_db"] = p.budget.LaserDroopDB
	}
	return noc.PowerReport{
		StaticMW:  p.budget.LaserPowerMW + p.budget.TuningPowerMW,
		DynamicMW: dynMW,
		Breakdown: breakdown,
	}
}

// physSnap is the physical layer's share of a crossbar snapshot; the budget,
// the serialization memo tables and the fault timelines are functions of the
// configuration and stay out.
type physSnap struct {
	now      sim.Tick
	stats    noc.Stats
	bitsSent uint64
	arrivals noc.DeliveryQueue
}

// SnapshotAt implements noc.Snapshot.
func (s *physSnap) SnapshotAt() sim.Tick { return s.now }

func (p *phys) snapshot() physSnap {
	return physSnap{
		now:      p.now,
		stats:    p.stats,
		bitsSent: p.bitsSent,
		arrivals: p.arrivals.Clone(),
	}
}

func (p *phys) restore(s *physSnap) {
	p.now = s.now
	p.stats = s.stats
	p.bitsSent = s.bitsSent
	p.arrivals.Restore(&s.arrivals)
}
