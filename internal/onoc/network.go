// Package onoc implements the optical Network-on-Chip under study: a
// Corona-class multiple-writer single-reader (MWSR) wavelength-routed
// crossbar. Every node owns a "home channel" — a WDM group of wavelengths on
// the serpentine waveguide that only it detects — and any other node may
// modulate onto that channel after acquiring the channel's circulating
// arbitration token. SWMR (swmr.go) is the dual, a broadcast channel per
// writer. Both are the same physical layer (phys.go; device losses, laser
// power and per-bit energies come from internal/photonics) under a different
// arbitration rule, and the arbitration rule is all network.go and swmr.go
// hold.
//
// The model is cycle-level: token circulation, channel serialization at the
// aggregate WDM line rate, light propagation scaled by serpentine distance,
// and O/E conversion overheads are all modelled in system clock cycles.
package onoc

import (
	"math/bits"

	"onocsim/internal/config"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// The arbitration token's timing. No study varies these: the token round
// trip is nodes × TokenHopCycles, which the cores option already varies
// (DESIGN §12).
const (
	// TokenHopCycles is the token circulation delay between adjacent nodes
	// on the arbitration waveguide.
	TokenHopCycles sim.Tick = 1
	// MaxTokenHold bounds how many packets a node may send back-to-back
	// while holding a channel token, preventing starvation under hotspot
	// traffic.
	MaxTokenHold = 4
)

// Network is the MWSR crossbar: the physical layer plus one circulating
// arbitration token per home channel. It implements noc.Network.
type Network struct {
	phys
	// hop and maxHold are TokenHopCycles and MaxTokenHold, or the values a
	// package test sweeps.
	hop     sim.Tick
	maxHold int

	channels []channel
	// wake holds the channels with queued senders by tokenReady, so Tick
	// steps exactly the channels whose token is actionable this cycle.
	wake wakeWheel
	// delivering is set while Tick runs delivery callbacks: an Inject from
	// one is still ahead of this cycle's arbitration (see retarget).
	delivering bool

	// Arbitration energy: token grabs and timeout-and-regenerate recoveries.
	grabs, regens uint64
}

// srcQueue is a FIFO of messages from one source. Popping advances a head
// index instead of re-slicing, so the backing array keeps its capacity and
// steady-state traffic stops allocating.
type srcQueue struct {
	buf  []*noc.Message
	head int
}

func (q *srcQueue) push(m *noc.Message) { q.buf = append(q.buf, m) }

// srcSlots is how many messages each sender FIFO holds before it grows.
const srcSlots = 2

// newSrcQueues returns count empty sender FIFOs whose first srcSlots
// messages share one backing array, so a build costs two allocations however
// many FIFOs it has; a FIFO that outgrows its slots reallocates on its own.
func newSrcQueues(count int) []srcQueue {
	qs := make([]srcQueue, count)
	slots := make([]*noc.Message, count*srcSlots)
	for i := range qs {
		qs[i].buf = slots[i*srcSlots : i*srcSlots : (i+1)*srcSlots]
	}
	return qs
}

func (q *srcQueue) empty() bool { return q.head == len(q.buf) }

func (q *srcQueue) pop() *noc.Message {
	m := q.buf[q.head]
	q.buf[q.head] = nil
	q.head++
	if q.head == len(q.buf) {
		q.buf = q.buf[:0]
		q.head = 0
	}
	return m
}

func (q *srcQueue) reset() {
	for i := q.head; i < len(q.buf); i++ {
		q.buf[i] = nil
	}
	q.buf = q.buf[:0]
	q.head = 0
}

// channel is the home channel of one destination node.
type channel struct {
	dst int
	// queues[src] holds messages from src awaiting the token.
	queues []srcQueue
	queued int
	// waiting marks the sources whose queue is non-empty.
	waiting bitset
	// tokenPos is the node currently able to grab the token.
	tokenPos int
	// tokenReady is the cycle at which the token becomes actionable at
	// tokenPos (circulation delay or post-transmission release); never
	// before cycle 1, the first a Tick reaches.
	tokenReady sim.Tick
	// holdCount counts consecutive transmissions by tokenPos, bounded by
	// MaxTokenHold for fairness.
	holdCount int
	// flying is set while the token is hopping towards tokenPos after a jump
	// (not while the channel transmits, regenerates a lost token, or replays
	// idle circulation): only then may an Inject retarget it.
	flying bool
}

// bitset marks the non-empty sender FIFOs of one MWSR channel or of the SWMR
// fabric, so arbitration visits waiting senders only.
type bitset []uint64

func (b bitset) set(i int)   { b[i>>6] |= 1 << (i & 63) }
func (b bitset) clear(i int) { b[i>>6] &^= 1 << (i & 63) }

// next returns the ring distance in [1, nodes] from pos to the next set bit,
// a set bit at pos itself counting as the full circle. Some bit must be set.
func (b bitset) next(pos, nodes int) int {
	from := pos + 1
	if from == nodes {
		from = 0
	}
	i := from >> 6
	w := b[i] &^ (1<<(from&63) - 1)
	for w == 0 { // comes back to the first word, unmasked, at the latest
		if i++; i == len(b) {
			i = 0
		}
		w = b[i]
	}
	d := i<<6 + bits.TrailingZeros64(w) - pos
	if d <= 0 {
		d += nodes
	}
	return d
}

// wakeWheel files the channels with queued senders under the cycle their
// token is next actionable: a bitset of channels per cycle for the span cycles
// after now, span ≥ 2 × nodes × hop so a token in flight is always on it, and
// a small overflow set for the channels due later (a long transmission, a
// token outage). Tick steps the current cycle's bits in ascending dst.
type wakeWheel struct {
	mask  sim.Tick // span - 1
	words int      // bitset words per cycle
	bits  []uint64 // span × words
	occ   []uint64 // a bit per cycle with a channel filed
	far   []*channel
	farAt sim.Tick // the earliest tokenReady in far, Never when empty
}

func newWakeWheel(nodes int, hop sim.Tick) wakeWheel {
	span := 64
	for sim.Tick(span) < 2*sim.Tick(nodes)*hop {
		span *= 2
	}
	words := (nodes + 63) / 64
	return wakeWheel{mask: sim.Tick(span - 1), words: words, bits: make([]uint64, span*words),
		occ: make([]uint64, span/64), farAt: noc.Never}
}

// row returns the bitset of cycle at.
func (w *wakeWheel) row(at sim.Tick) bitset {
	s := int(at&w.mask) * w.words
	return w.bits[s : s+w.words]
}

// add files ch under its tokenReady, which lies in [now, ∞).
func (w *wakeWheel) add(ch *channel, now sim.Tick) {
	if ch.tokenReady-now > w.mask {
		w.far = append(w.far, ch)
		w.farAt = min(w.farAt, ch.tokenReady)
		return
	}
	w.row(ch.tokenReady).set(ch.dst)
	s := ch.tokenReady & w.mask
	w.occ[s>>6] |= 1 << (s & 63)
}

// remove takes ch, filed on the wheel rather than in far, off it.
func (w *wakeWheel) remove(ch *channel) {
	r := w.row(ch.tokenReady)
	r.clear(ch.dst)
	for _, x := range r {
		if x != 0 {
			return
		}
	}
	s := ch.tokenReady & w.mask
	w.occ[s>>6] &^= 1 << (s & 63)
}

// admit moves the channels of far that come due within a span of now onto
// the wheel; Tick calls it once farAt is that close.
func (w *wakeWheel) admit(now sim.Tick) {
	keep := w.far[:0]
	w.farAt = noc.Never
	for _, ch := range w.far {
		if ch.tokenReady-now > w.mask {
			keep = append(keep, ch)
			w.farAt = min(w.farAt, ch.tokenReady)
		} else {
			w.add(ch, now)
		}
	}
	clear(w.far[len(keep):])
	w.far = keep
}

// next returns the earliest cycle after now with a channel filed, or Never:
// the wheel scanned word by word from now+1, then far.
func (w *wakeWheel) next(now sim.Tick) sim.Tick {
	s := int((now + 1) & w.mask)
	base := now + 1 - sim.Tick(s&63) // the cycle of the word's bit 0
	x := w.occ[s>>6] &^ (1<<(s&63) - 1)
	for k := 1; x == 0; k++ {
		if k > len(w.occ) {
			return w.farAt
		}
		base += 64
		x = w.occ[(s>>6+k)&(len(w.occ)-1)]
	}
	return min(w.farAt, base+sim.Tick(bits.TrailingZeros64(x)))
}

// reset empties the wheel.
func (w *wakeWheel) reset() {
	clear(w.bits)
	clear(w.occ)
	clear(w.far)
	w.far = w.far[:0]
	w.farAt = noc.Never
}

// Crossbar is either photonic crossbar as the fabrics built over it and the
// analytic estimator read it: besides the network, the nominal serialization
// of a payload, the laser-droop derating of a lightpath, and the node whose
// channel a message waits on (the destination's home channel on MWSR, the
// source's broadcast channel on SWMR).
type Crossbar interface {
	noc.Network
	noc.Checkpointer
	noc.Resettable
	SerializationCycles(bytes int) sim.Tick
	DerateFactor(src, dst int) sim.Tick
	ShardNode(src, dst int) int
}

// NewCrossbar builds the crossbar cfg.Architecture names, SWMR for "swmr" and
// MWSR otherwise, with deterministic fault injection (see newPhys for what the
// schedule derives from). It is the one place that choice is made.
func NewCrossbar(nodes int, cfg config.Optical, faults config.Faults, seed uint64) Crossbar {
	if cfg.Architecture == "swmr" {
		return newSWMR(nodes, cfg, faults, seed)
	}
	return newMWSR(nodes, cfg, faults, seed, TokenHopCycles, MaxTokenHold)
}

// newMWSR builds the MWSR crossbar with the given token hop delay and hold
// bound.
func newMWSR(nodes int, cfg config.Optical, faults config.Faults, seed uint64, hop sim.Tick, maxHold int) *Network {
	n := &Network{phys: newPhys(nodes, cfg, faults, seed), hop: hop, maxHold: maxHold, wake: newWakeWheel(nodes, hop)}
	// Four slabs, not nodes² small objects: a sweep builds many fabrics.
	words := (nodes + 63) / 64
	n.channels = make([]channel, nodes)
	queues := newSrcQueues(nodes * nodes)
	waiting := make(bitset, nodes*words)
	for d := range n.channels {
		n.channels[d] = channel{
			dst:        d,
			queues:     queues[d*nodes : (d+1)*nodes : (d+1)*nodes],
			waiting:    waiting[d*words : (d+1)*words : (d+1)*words],
			tokenPos:   (d + 1) % nodes,
			tokenReady: 1,
		}
	}
	return n
}

// catchUp replays an idle channel's token circulation since it last carried
// queued traffic, in closed form, leaving tokenReady strictly beyond now (a
// fresh channel's tokenReady is already cycle 1, after the cycle-0 injects).
// Channels with no queued senders are not stepped at all; their trajectory —
// one hop every TokenHopCycles starting at tokenReady — is rebuilt here the
// moment the channel matters again. Without token faults one
// division suffices; with them the trajectory is piecewise — closed-form
// hopping between outage windows, each actionable moment inside a window
// losing the token until the timeout regenerates it at the home node.
// stepChannel checks the same schedule at the same actionable moments (a jump
// never crosses a window start), so full ticking, idle skipping and this
// catch-up produce the identical trajectory — the skip-equivalence invariant.
func (n *Network) catchUp(ch *channel) {
	first := ch.tokenReady
	if first > n.now {
		return
	}
	hop := n.hop
	ch.holdCount = 0
	if !n.faults.TokenFaults() {
		steps := (n.now-first)/hop + 1
		ch.tokenPos = (ch.tokenPos + int(steps%sim.Tick(n.nodes))) % n.nodes
		ch.tokenReady = first + steps*hop
		return
	}
	m, pos := first, ch.tokenPos
	for m <= n.now {
		if end, ok := n.faults.TokenOutage(ch.dst, m); ok {
			n.stats.Faults.TokenLosses++
			n.regens++
			pos = (ch.dst + 1) % n.nodes
			m = end
			continue
		}
		limit := min(n.now, n.faults.NextTokenOutage(ch.dst, m)-1)
		steps := (limit-m)/hop + 1
		pos = (pos + int(steps%sim.Tick(n.nodes))) % n.nodes
		m += steps * hop
	}
	ch.tokenPos = pos
	ch.tokenReady = m
}

// Inject implements noc.Network.
func (n *Network) Inject(m *noc.Message) {
	if !n.admit(m) {
		return
	}
	ch := &n.channels[m.Dst]
	q := &ch.queues[m.Src]
	if q.empty() {
		ch.waiting.set(m.Src)
		if ch.queued == 0 {
			n.catchUp(ch)
			n.wake.add(ch, n.now)
		} else if ch.flying {
			n.retarget(ch, m.Src)
		}
	}
	q.push(m)
	ch.queued++
}

// retarget lands a token in flight at a source that just started waiting,
// if the token has not passed it yet: hop by hop it would have become
// actionable there at tokenReady − back·hop, found the queue non-empty and
// stopped. An Inject between Ticks is too late for the moment at now (that
// Tick's arbitration is over); one from a delivery callback precedes it.
func (n *Network) retarget(ch *channel, src int) {
	back := (ch.tokenPos - src + n.nodes) % n.nodes
	at := ch.tokenReady - sim.Tick(back)*n.hop
	if at > n.now || (at == n.now && n.delivering) {
		n.wake.remove(ch)
		ch.tokenPos, ch.tokenReady = src, at
		n.wake.add(ch, n.now)
	}
}

// Tick implements noc.Network: deliver due arrivals, then step every channel
// whose token is actionable this cycle.
func (n *Network) Tick() {
	n.now++
	if n.wake.farAt-n.now <= n.wake.mask {
		n.wake.admit(n.now)
	}
	n.delivering = true
	n.deliverDue()
	n.delivering = false
	// Idle channels circulate their token lazily (see catchUp); channels in
	// mid-flight or mid-transmission are filed under later cycles. A step
	// moves tokenReady past now, so no channel is filed back under this one.
	s := n.now & n.wake.mask
	if n.wake.occ[s>>6]&(1<<(s&63)) == 0 {
		return
	}
	n.wake.occ[s>>6] &^= 1 << (s & 63)
	row := n.wake.row(n.now)
	for i, x := range row {
		row[i] = 0
		for ; x != 0; x &= x - 1 {
			ch := &n.channels[i<<6+bits.TrailingZeros64(x)]
			n.stepChannel(ch)
			if ch.queued > 0 {
				n.wake.add(ch, n.now)
			}
		}
	}
}

// stepChannel acts on a channel whose token is actionable (tokenReady ==
// now): start a transmission at the token's position, or send the token on
// to the next waiting sender.
func (n *Network) stepChannel(ch *channel) {
	// A lost token stalls the whole channel until the timeout regenerates
	// it at the home node. The check runs at actionable moments only,
	// matching catchUp's idle-path replay.
	if end, ok := n.faults.TokenOutage(ch.dst, n.now); ok {
		n.stats.Faults.TokenLosses++
		n.regens++
		ch.tokenPos = (ch.dst + 1) % n.nodes
		ch.holdCount = 0
		ch.tokenReady = end
		ch.flying = false
		return
	}
	q := &ch.queues[ch.tokenPos]
	if !q.empty() && ch.holdCount < n.maxHold {
		m := q.pop()
		if q.empty() {
			ch.waiting.clear(ch.tokenPos)
		}
		ch.queued--
		ch.holdCount++
		n.grabs++
		// The channel is occupied for the serialization period; the
		// token resumes circulating from here afterwards.
		ch.tokenReady = n.now + n.launch(m, ch.dst)
		ch.flying = false
		return
	}
	// Jump the token to the next waiting sender: d hops past queues that are
	// empty now (retarget handles one filling up mid-flight). A jump never
	// crosses the start of a token outage — every jumped-over moment lies
	// before it, and the landing moment takes the check above as usual.
	d := sim.Tick(ch.waiting.next(ch.tokenPos, n.nodes))
	if n.faults.TokenFaults() {
		d = min(d, (n.faults.NextTokenOutage(ch.dst, n.now)-1-n.now)/n.hop+1)
	}
	ch.holdCount = 0
	ch.tokenPos = (ch.tokenPos + int(d)) % n.nodes
	ch.tokenReady = n.now + d*n.hop
	ch.flying = true
}

// ShardNode implements noc.ScheduleShardable. Every resource a src→dst
// message touches — the destination's home channel, its token, its per-source
// queues, its arrival stream — belongs to the destination.
func (n *Network) ShardNode(src, dst int) int { return dst }

// NextWake implements noc.Network. A channel with queued senders next acts
// (transmits, jumps or recovers its token) at tokenReady — which every state
// transition leaves strictly in the future — so the fabric's next event is
// the earliest of the wake wheel's and the first pending arrival. Cycles
// in between are spent on light propagation, channel serialization, or token
// flight: provably unobservable. Idle token circulation is unobservable too —
// catchUp reproduces it analytically.
func (n *Network) NextWake() sim.Tick {
	return min(n.arrivals.NextAt(), n.wake.next(n.now))
}

// Reset implements noc.Resettable: the physical layer (see phys.reset),
// queues and token state return to constructor values.
func (n *Network) Reset() {
	n.reset()
	n.wake.reset()
	n.grabs = 0
	n.regens = 0
	for d := range n.channels {
		ch := &n.channels[d]
		if ch.queued > 0 { // an empty FIFO is already in its reset state
			for s := range ch.queues {
				ch.queues[s].reset()
			}
			clear(ch.waiting)
		}
		ch.queued = 0
		ch.tokenPos = (d + 1) % n.nodes
		ch.tokenReady = 1
		ch.holdCount = 0
		ch.flying = false
	}
}

// ZeroLoadLatency implements noc.Network: expected token wait (half a
// circulation at zero load) plus O/E overhead, serialization and propagation.
func (n *Network) ZeroLoadLatency(src, dst, bytes int) sim.Tick {
	return n.zeroLoad(src, dst, bytes, sim.Tick(n.nodes)*n.hop/2)
}

// PowerReport implements noc.Network: the photonic report plus a small
// electrical arbitration cost per token grab, and a larger one per
// timeout-and-regenerate token recovery.
func (n *Network) PowerReport(elapsed sim.Tick) noc.PowerReport {
	const tokenGrabPJ = 0.5
	const tokenRegenPJ = 5.0
	rep := n.powerReport(elapsed, float64(n.grabs)*tokenGrabPJ, float64(n.regens)*tokenRegenPJ)
	if n.regens > 0 {
		rep.Breakdown["token_regens"] = float64(n.regens)
	}
	return rep
}
