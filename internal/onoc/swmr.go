package onoc

import (
	"fmt"
	"math/bits"

	"onocsim/internal/config"
	"onocsim/internal/fault"
	"onocsim/internal/noc"
	"onocsim/internal/photonics"
	"onocsim/internal/sim"
)

// SWMR is the single-writer multiple-reader crossbar (Firefly-class): every
// node owns a broadcast channel that only it modulates, and every other node
// carries a receiver bank for that channel. Arbitration disappears — a
// sender serializes only behind its own earlier messages — at the price of a
// quadratic receiver-ring budget whose thermal tuning dominates static
// power. The MWSR/SWMR pair brackets the classic ONOC design space:
// arbitration latency versus static power.
type SWMR struct {
	cfg   config.Optical
	nodes int

	now      sim.Tick
	deliver  noc.DeliverFunc
	shardObs noc.ShardObsFunc
	stats    *noc.Stats

	ser serTable

	// Fault injection (see Network): thermal drift shrinks a sender
	// channel's usable WDM degree, laser droop derates over-budget
	// lightpaths. SWMR has no arbitration token, so the token fault class
	// does not apply and is ignored.
	faults   *fault.Injector
	serDrift serTable
	derate   []sim.Tick

	// chanFree[s] is the first cycle node s's send channel is free.
	chanFree []sim.Tick
	// queues[s] holds messages awaiting the channel, FIFO; waiting marks the
	// non-empty ones, so Tick and NextWake visit backlogged senders only (in
	// ascending source order, as a scan over all senders would).
	queues   []srcQueue
	waiting  bitset
	arrivals arrivalHeap
	seq      uint64
	inflight int

	devices  photonics.DeviceParams
	budget   photonics.Budget
	bitsSent uint64
	sends    uint64
}

// NewSWMR builds the broadcast crossbar for the given node count.
func NewSWMR(nodes int, cfg config.Optical) *SWMR {
	return NewSWMRWithFaults(nodes, cfg, config.Faults{}, 0)
}

// NewSWMRWithFaults builds the broadcast crossbar with deterministic fault
// injection. Token faults do not apply (no arbitration token exists) and are
// ignored; thermal drift and laser droop degrade exactly as on MWSR.
func NewSWMRWithFaults(nodes int, cfg config.Optical, faults config.Faults, seed uint64) *SWMR {
	if nodes < 2 {
		panic(fmt.Sprintf("onoc: swmr needs ≥2 nodes, got %d", nodes))
	}
	bpc := float64(cfg.WavelengthsPerChannel) * cfg.GbpsPerWavelength / cfg.ClockGHz
	if bpc <= 0 {
		panic("onoc: non-positive channel capacity")
	}
	// Drop the inapplicable token class before building the injector so a
	// token-only fault section costs nothing here.
	faults.TokenMTBF, faults.TokenTimeout = 0, 0
	n := &SWMR{
		cfg:      cfg,
		nodes:    nodes,
		stats:    noc.NewStats(),
		ser:      serTable{bitsPerCycle: bpc},
		devices:  photonics.DefaultDeviceParams(),
		faults:   fault.New(nodes, faults, seed),
		chanFree: make([]sim.Tick, nodes),
		queues:   make([]srcQueue, nodes),
		waiting:  make(bitset, (nodes+63)/64),
	}
	geom := photonics.CrossbarGeometry{
		Nodes:                 nodes,
		WavelengthsPerChannel: cfg.WavelengthsPerChannel,
		DieEdgeCm:             cfg.DieEdgeCm,
	}
	budget, err := photonics.ComputeBudgetWithDroop(n.devices, geom, faults.LaserDroopDB)
	if err != nil {
		panic("onoc: " + err.Error())
	}
	if faults.ThermalMTBF > 0 {
		avail := cfg.WavelengthsPerChannel - int(float64(cfg.WavelengthsPerChannel)*faults.ThermalDetune)
		if avail < 1 {
			avail = 1
		}
		n.serDrift = serTable{bitsPerCycle: bpc * float64(avail) / float64(cfg.WavelengthsPerChannel)}
	}
	n.derate = derateTable(n.devices, geom, budget, faults.LaserDroopDB)
	// The ring count is symmetric with MWSR (N·(N-1) receiver banks here
	// versus N·(N-1) modulator banks there), so tuning power matches. The
	// SWMR penalty is the broadcast laser budget: every wavelength's
	// optical power must be split across all N-1 potential readers, a
	// 10·log10(N-1) dB splitting loss on top of the serpentine path, so
	// the wall-plug laser power scales by roughly the reader count.
	budget.LaserPowerMW *= float64(nodes - 1)
	n.budget = budget
	return n
}

// Nodes implements noc.Network.
func (n *SWMR) Nodes() int { return n.nodes }

// Now implements noc.Network.
func (n *SWMR) Now() sim.Tick { return n.now }

// Stats implements noc.Network. HopCount records sender-channel queueing.
func (n *SWMR) Stats() *noc.Stats { return n.stats }

// SetDeliver implements noc.Network.
func (n *SWMR) SetDeliver(fn noc.DeliverFunc) { n.deliver = fn }

// Budget exposes the resolved photonic budget.
func (n *SWMR) Budget() photonics.Budget { return n.budget }

// SerializationCycles returns the nominal (fault-free) channel occupancy of
// a payload.
func (n *SWMR) SerializationCycles(bytes int) sim.Tick {
	return n.ser.cycles(bytes)
}

// swmrSendSer mirrors Network.sendSer for the broadcast crossbar: drift on
// the sender's channel, droop derating by lightpath length.
func (n *SWMR) swmrSendSer(m *noc.Message) sim.Tick {
	var ser sim.Tick
	if n.faults.DriftAt(m.Src, n.now) {
		ser = n.serDrift.cycles(m.Bytes)
		n.stats.Faults.DriftedSends++
	} else {
		ser = n.ser.cycles(m.Bytes)
	}
	if n.derate != nil {
		if f := n.derate[(m.Dst-m.Src+n.nodes)%n.nodes]; f > 1 {
			ser *= f
			n.stats.Faults.DeratedSends++
		}
	}
	return ser
}

// DerateFactor returns the droop-induced serialization multiplier for the
// src→dst lightpath (1 when it closes at full rate).
func (n *SWMR) DerateFactor(src, dst int) sim.Tick {
	if n.derate == nil || src == dst {
		return 1
	}
	return n.derate[(dst-src+n.nodes)%n.nodes]
}

// propagation mirrors the MWSR serpentine distance model.
func (n *SWMR) propagation(src, dst int) sim.Tick {
	hops := (dst - src + n.nodes) % n.nodes
	p := sim.Tick(int64(hops) * n.cfg.PropagationCyclesAcross / int64(n.nodes))
	if p < 1 {
		p = 1
	}
	return p
}

// Inject implements noc.Network.
func (n *SWMR) Inject(m *noc.Message) {
	if m.Src < 0 || m.Src >= n.nodes || m.Dst < 0 || m.Dst >= n.nodes {
		panic(fmt.Sprintf("onoc: swmr message %d endpoints (%d->%d) out of range [0,%d)", m.ID, m.Src, m.Dst, n.nodes))
	}
	m.Inject = n.now
	n.stats.Injected++
	n.inflight++
	if m.Src == m.Dst {
		n.seq++
		n.arrivals.push(arrival{at: n.now + 1, seq: n.seq, msg: m})
		return
	}
	n.queues[m.Src].push(m)
	n.waiting.set(m.Src)
}

// Tick implements noc.Network.
func (n *SWMR) Tick() {
	n.now++
	for len(n.arrivals) > 0 && n.arrivals[0].at <= n.now {
		a := n.arrivals.pop()
		a.msg.Arrive = n.now
		n.stats.RecordDelivery(a.msg)
		n.inflight--
		if n.deliver != nil {
			n.deliver(a.msg)
		}
	}
	for i, w := range n.waiting {
		for ; w != 0; w &= w - 1 {
			s := i<<6 + bits.TrailingZeros64(w)
			if n.chanFree[s] > n.now {
				continue
			}
			m := n.queues[s].pop()
			if n.queues[s].empty() {
				n.waiting.clear(s)
			}
			ser := n.swmrSendSer(m)
			oe := sim.Tick(n.cfg.OEOverheadCycles)
			wait := n.now - m.Inject
			n.stats.HopCount.Add(float64(wait))
			n.stats.QueueDelay.Add(float64(wait))
			if n.shardObs != nil {
				n.shardObs(m.ID, noc.ShardObs{Start: n.now, Queue: float64(wait)})
			}
			n.seq++
			n.arrivals.push(arrival{at: n.now + oe + ser + n.propagation(m.Src, m.Dst), seq: n.seq, msg: m})
			n.chanFree[s] = n.now + ser
			n.bitsSent += uint64(m.Bytes) * 8
			n.sends++
		}
	}
}

// Busy implements noc.Network.
func (n *SWMR) Busy() bool { return n.inflight > 0 }

// Lookahead implements noc.Network: an uncontended send still pays O/E
// conversion plus at least one cycle each of serialization and propagation.
func (n *SWMR) Lookahead() sim.Tick {
	la := sim.Tick(n.cfg.OEOverheadCycles) + 2
	if la < 1 {
		la = 1
	}
	return la
}

// ShardNode implements noc.ScheduleShardable. A message's only stateful
// resources — the sender's broadcast channel and FIFO — belong to its source.
func (n *SWMR) ShardNode(src, dst int) int { return src }

// SetShardObs implements noc.ScheduleShardable. Like the delivery callback,
// the sink survives Reset.
func (n *SWMR) SetShardObs(fn noc.ShardObsFunc) { n.shardObs = fn }

// SeqOrder implements noc.ScheduleShardable: seq is assigned at transmit
// start (self-messages at Inject) and Tick scans senders in ascending source
// order, so same-cycle deliveries complete in transmit-start order,
// tie-broken by source.
func (n *SWMR) SeqOrder() noc.SeqOrder { return noc.SeqByService }

// NextWake implements noc.Network. With no arbitration there is no hidden
// per-cycle state: the next observable action is either the earliest
// arrival or the first cycle a backlogged sender's channel frees up, both
// known exactly.
func (n *SWMR) NextWake() sim.Tick {
	wake := noc.Never
	if len(n.arrivals) > 0 {
		wake = n.arrivals[0].at
	}
	for i, w := range n.waiting {
		for ; w != 0; w &= w - 1 {
			wake = min(wake, max(n.chanFree[i<<6+bits.TrailingZeros64(w)], n.now+1))
		}
	}
	return wake
}

// SkipTo implements noc.Network. chanFree and arrival times are absolute,
// so the skip is a pure clock jump.
func (n *SWMR) SkipTo(t sim.Tick) {
	if t > n.now {
		n.now = t
	}
}

// Reset implements noc.Resettable.
func (n *SWMR) Reset() {
	n.now = 0
	n.stats = noc.NewStats()
	n.arrivals = n.arrivals[:0]
	n.seq = 0
	n.inflight = 0
	n.bitsSent = 0
	n.sends = 0
	for s := range n.queues {
		n.queues[s].reset()
		n.chanFree[s] = 0
	}
	clear(n.waiting)
}

// ZeroLoadLatency implements noc.Network: no arbitration wait at all.
func (n *SWMR) ZeroLoadLatency(src, dst, bytes int) sim.Tick {
	if src == dst {
		return 1
	}
	ser := n.SerializationCycles(bytes)
	if n.derate != nil {
		ser *= n.DerateFactor(src, dst) // static droop shifts the expectation
	}
	return sim.Tick(n.cfg.OEOverheadCycles) + ser + n.propagation(src, dst)
}

// PowerReport implements noc.Network.
func (n *SWMR) PowerReport(elapsed sim.Tick, clockGHz float64) noc.PowerReport {
	seconds := float64(elapsed) / (clockGHz * 1e9)
	dynPJ := n.devices.DynamicEnergyPJ(int64(n.bitsSent))
	dynMW := 0.0
	if seconds > 0 {
		dynMW = dynPJ * 1e-9 / seconds
	}
	static := n.budget.LaserPowerMW + n.budget.TuningPowerMW
	breakdown := map[string]float64{
		"laser_mw":     n.budget.LaserPowerMW,
		"tuning_mw":    n.budget.TuningPowerMW,
		"endpoints_mw": dynMW,
	}
	if n.budget.LaserDroopDB > 0 {
		breakdown["laser_droop_db"] = n.budget.LaserDroopDB
	}
	return noc.PowerReport{
		StaticMW:  static,
		DynamicMW: dynMW,
		Breakdown: breakdown,
	}
}
