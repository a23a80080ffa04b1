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
	// wake holds the channels with queued senders, earliest tokenReady first,
	// so Tick steps exactly the channels whose token is actionable this cycle
	// and NextWake reads the root.
	wake wakeHeap
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
	// tokenPos (circulation delay or post-transmission release).
	tokenReady sim.Tick
	// holdCount counts consecutive transmissions by tokenPos, bounded by
	// MaxTokenHold for fairness.
	holdCount int
	// flying is set while the token is hopping towards tokenPos after a jump
	// (not while the channel transmits, regenerates a lost token, or replays
	// idle circulation): only then may an Inject retarget it.
	flying bool
	// heapIdx is the channel's slot in Network.wake while queued > 0.
	heapIdx int
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

// wakeHeap is an indexed binary min-heap of the channels with queued senders,
// keyed (tokenReady, dst): channels due the same cycle pop in ascending dst,
// the order a scan over all channels would step them in.
type wakeHeap []*channel

func (h wakeHeap) less(i, j int) bool {
	if h[i].tokenReady != h[j].tokenReady {
		return h[i].tokenReady < h[j].tokenReady
	}
	return h[i].dst < h[j].dst
}

func (h wakeHeap) swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].heapIdx, h[j].heapIdx = i, j
}

func (h wakeHeap) up(i int) {
	for p := (i - 1) / 2; i > 0 && h.less(i, p); i, p = p, (p-1)/2 {
		h.swap(i, p)
	}
}

func (h wakeHeap) down(i int) {
	for {
		c := 2*i + 1
		if c+1 < len(h) && h.less(c+1, c) {
			c++
		}
		if c >= len(h) || !h.less(c, i) {
			return
		}
		h.swap(i, c)
		i = c
	}
}

func (h *wakeHeap) push(ch *channel) {
	ch.heapIdx = len(*h)
	*h = append(*h, ch)
	h.up(ch.heapIdx)
}

// New builds the crossbar for the given node count.
func New(nodes int, cfg config.Optical) *Network {
	return NewWithFaults(nodes, cfg, config.Faults{}, 0)
}

// NewWithFaults builds the crossbar with deterministic fault injection (see
// newPhys for what the schedule derives from).
func NewWithFaults(nodes int, cfg config.Optical, faults config.Faults, seed uint64) *Network {
	return newMWSR(nodes, cfg, faults, seed, TokenHopCycles, MaxTokenHold)
}

// newMWSR is NewWithFaults with the given token hop delay and hold bound.
func newMWSR(nodes int, cfg config.Optical, faults config.Faults, seed uint64, hop sim.Tick, maxHold int) *Network {
	n := &Network{phys: newPhys(nodes, cfg, faults, seed), hop: hop, maxHold: maxHold}
	// Three slabs, not 2·nodes+ small objects: a sweep builds many fabrics.
	words := (nodes + 63) / 64
	n.channels = make([]channel, nodes)
	queues := make([]srcQueue, nodes*nodes)
	waiting := make(bitset, nodes*words)
	for d := range n.channels {
		n.channels[d] = channel{
			dst:      d,
			queues:   queues[d*nodes : (d+1)*nodes : (d+1)*nodes],
			waiting:  waiting[d*words : (d+1)*words : (d+1)*words],
			tokenPos: (d + 1) % nodes,
		}
	}
	return n
}

// catchUp replays an idle channel's token circulation since it last carried
// queued traffic, in closed form, leaving tokenReady strictly beyond now.
// Channels with no queued senders are not stepped at all; their trajectory —
// one hop every TokenHopCycles starting at max(tokenReady, 1) — is rebuilt
// here the moment the channel matters again. Without token faults one
// division suffices; with them the trajectory is piecewise — closed-form
// hopping between outage windows, each actionable moment inside a window
// losing the token until the timeout regenerates it at the home node.
// stepChannel checks the same schedule at the same actionable moments (a jump
// never crosses a window start), so full ticking, idle skipping and this
// catch-up produce the identical trajectory — the skip-equivalence invariant.
func (n *Network) catchUp(ch *channel) {
	first := max(ch.tokenReady, 1)
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
			n.wake.push(ch)
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
		ch.tokenPos, ch.tokenReady = src, at
		n.wake.up(ch.heapIdx)
	}
}

// Tick implements noc.Network: deliver due arrivals, then step every channel
// whose token is actionable this cycle.
func (n *Network) Tick() {
	n.now++
	n.delivering = true
	n.deliverDue()
	n.delivering = false
	// Idle channels circulate their token lazily (see catchUp) and channels
	// in mid-flight or mid-transmission sit deeper in the heap; every step
	// moves tokenReady into the future, so each due channel steps once.
	for len(n.wake) > 0 && n.wake[0].tokenReady <= n.now {
		ch := n.wake[0]
		n.stepChannel(ch)
		if ch.queued == 0 { // drained: the last entry takes the root's place
			last := len(n.wake) - 1
			n.wake.swap(0, last)
			n.wake[last] = nil
			n.wake = n.wake[:last]
		}
		n.wake.down(0)
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
// the earliest of the wake heap's root and the first pending arrival. Cycles
// in between are spent on light propagation, channel serialization, or token
// flight: provably unobservable. Idle token circulation is unobservable too —
// catchUp reproduces it analytically.
func (n *Network) NextWake() sim.Tick {
	wake := n.arrivals.NextAt()
	if len(n.wake) > 0 && n.wake[0].tokenReady < wake {
		wake = n.wake[0].tokenReady
	}
	return wake
}

// Reset implements noc.Resettable: the physical layer (see phys.reset),
// queues and token state return to constructor values.
func (n *Network) Reset() {
	n.reset()
	clear(n.wake)
	n.wake = n.wake[:0]
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
		ch.tokenReady = 0
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
