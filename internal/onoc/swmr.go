package onoc

import (
	"math/bits"

	"onocsim/internal/config"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// swmr is the single-writer multiple-reader crossbar (Firefly-class): every
// node owns a broadcast channel that only it modulates, and every other node
// carries a receiver bank for that channel. Arbitration disappears — a
// sender serializes only behind its own earlier messages — at the price of a
// quadratic receiver-ring budget whose thermal tuning dominates static
// power. The MWSR/SWMR pair brackets the classic ONOC design space:
// arbitration latency versus static power.
type swmr struct {
	phys

	// chanFree[s] is the first cycle node s's send channel is free.
	chanFree []sim.Tick
	// queues[s] holds messages awaiting the channel, FIFO; waiting marks the
	// non-empty ones, so Tick and NextWake visit backlogged senders only (in
	// ascending source order, as a scan over all senders would).
	queues  []srcQueue
	waiting bitset
}

// newSWMR builds the broadcast crossbar with deterministic fault injection.
// Token faults do not apply (no arbitration token exists) and are ignored;
// thermal drift and laser droop degrade exactly as on MWSR.
func newSWMR(nodes int, cfg config.Optical, faults config.Faults, seed uint64) *swmr {
	// Drop the inapplicable token class before building the injector so a
	// token-only fault section costs nothing here.
	faults.TokenMTBF, faults.TokenTimeout = 0, 0
	n := &swmr{
		phys:     newPhys(nodes, cfg, faults, seed),
		chanFree: make([]sim.Tick, nodes),
		queues:   newSrcQueues(nodes),
		waiting:  make(bitset, (nodes+63)/64),
	}
	// The ring count is symmetric with MWSR (N·(N-1) receiver banks here
	// versus N·(N-1) modulator banks there), so tuning power matches. The
	// SWMR penalty is the broadcast laser budget: every wavelength's
	// optical power must be split across all N-1 potential readers, a
	// 10·log10(N-1) dB splitting loss on top of the serpentine path, so
	// the wall-plug laser power scales by roughly the reader count.
	n.budget.LaserPowerMW *= float64(nodes - 1)
	return n
}

// Inject implements noc.Network.
func (n *swmr) Inject(m *noc.Message) {
	if n.admit(m) {
		n.queues[m.Src].push(m)
		n.waiting.set(m.Src)
	}
}

// Tick implements noc.Network.
func (n *swmr) Tick() {
	n.now++
	n.deliverDue()
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
			n.chanFree[s] = n.now + n.launch(m, s)
		}
	}
}

// ShardNode implements Crossbar. A message's only stateful
// resources — the sender's broadcast channel and FIFO — belong to its source.
func (n *swmr) ShardNode(src, dst int) int { return src }

// NextWake implements noc.Network. With no arbitration there is no hidden
// per-cycle state: the next observable action is either the earliest
// arrival or the first cycle a backlogged sender's channel frees up, both
// known exactly.
func (n *swmr) NextWake() sim.Tick {
	wake := n.arrivals.NextAt()
	for i, w := range n.waiting {
		for ; w != 0; w &= w - 1 {
			wake = min(wake, max(n.chanFree[i<<6+bits.TrailingZeros64(w)], n.now+1))
		}
	}
	return wake
}

// Reset implements noc.Resettable.
func (n *swmr) Reset() {
	n.reset()
	for s := range n.queues {
		n.queues[s].reset()
		n.chanFree[s] = 0
	}
	clear(n.waiting)
}

// ZeroLoadLatency implements noc.Network: no arbitration wait at all.
func (n *swmr) ZeroLoadLatency(src, dst, bytes int) sim.Tick {
	return n.zeroLoad(src, dst, bytes, 0)
}

// PowerReport implements noc.Network: arbitration costs nothing here.
func (n *swmr) PowerReport(elapsed sim.Tick) noc.PowerReport {
	return n.powerReport(elapsed)
}
