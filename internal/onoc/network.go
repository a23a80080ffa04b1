// Package onoc implements the optical Network-on-Chip under study: a
// Corona-class multiple-writer single-reader (MWSR) wavelength-routed
// crossbar. Every node owns a "home channel" — a WDM group of wavelengths on
// the serpentine waveguide that only it detects — and any other node may
// modulate onto that channel after acquiring the channel's circulating
// arbitration token. The physical layer (losses, laser power, per-bit
// energies) comes from internal/photonics.
//
// The model is cycle-level: token circulation, channel serialization at the
// aggregate WDM line rate, light propagation scaled by serpentine distance,
// and O/E conversion overheads are all modelled in system clock cycles.
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

// Network is the optical crossbar fabric. It implements noc.Network.
type Network struct {
	cfg   config.Optical
	nodes int

	now      sim.Tick
	deliver  noc.DeliverFunc
	shardObs noc.ShardObsFunc
	stats    *noc.Stats

	ser serTable

	// Fault injection (nil / empty when the config carries no faults).
	// faults schedules token losses and thermal drift windows; serDrift is
	// the serialization table at drift-degraded channel capacity; derate
	// maps serpentine hop count → rate-derating factor for lightpaths that
	// no longer close at full rate under laser droop (nil when none do).
	faults   *fault.Injector
	serDrift serTable
	derate   []sim.Tick
	regens   uint64

	channels []channel
	// wake holds the channels with queued senders, earliest tokenReady first,
	// so Tick steps exactly the channels whose token is actionable this cycle
	// and NextWake reads the root.
	wake     wakeHeap
	arrivals arrivalHeap
	seq      uint64
	inflight int
	// delivering is set while Tick runs delivery callbacks: an Inject from
	// one is still ahead of this cycle's arbitration (see retarget).
	delivering bool

	// Power accounting.
	devices  photonics.DeviceParams
	budget   photonics.Budget
	bitsSent uint64
	grabs    uint64

	// TokenWait is exposed through Stats().HopCount: for the optical
	// fabric "hops" means cycles spent waiting for the channel token.
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

type arrival struct {
	at  sim.Tick
	seq uint64
	msg *noc.Message
}

// arrivalHeap is a value-based 4-ary min-heap ordered by (at, seq). Like the
// sim engine it avoids container/heap, whose interface{} crossings boxed an
// allocation onto every push and pop — the dominant cost of the optical Tick.
type arrivalHeap []arrival

func (h arrivalHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}

func (h *arrivalHeap) push(a arrival) {
	q := append(*h, a)
	i := len(q) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !q.less(i, p) {
			break
		}
		q[i], q[p] = q[p], q[i]
		i = p
	}
	*h = q
}

func (h *arrivalHeap) pop() arrival {
	q := *h
	top := q[0]
	n := len(q) - 1
	q[0] = q[n]
	q[n] = arrival{} // release the message reference
	q = q[:n]
	i := 0
	for {
		best := i
		for k := 4*i + 1; k <= 4*i+4 && k < n; k++ {
			if q.less(k, best) {
				best = k
			}
		}
		if best == i {
			break
		}
		q[i], q[best] = q[best], q[i]
		i = best
	}
	*h = q
	return top
}

// New builds the crossbar for the given node count.
func New(nodes int, cfg config.Optical) *Network {
	return NewWithFaults(nodes, cfg, config.Faults{}, 0)
}

// NewWithFaults builds the crossbar with deterministic fault injection. The
// schedule derives from seed and the fault parameters only, so two fabrics
// built with equal (nodes, cfg, faults, seed) observe identical fault
// timelines — including sharded replicas, which each own a disjoint subset
// of the channels.
func NewWithFaults(nodes int, cfg config.Optical, faults config.Faults, seed uint64) *Network {
	if nodes < 2 {
		panic(fmt.Sprintf("onoc: need ≥2 nodes, got %d", nodes))
	}
	if cfg.TokenHopCycles < 1 || cfg.MaxTokenHold < 1 {
		panic(fmt.Sprintf("onoc: token_hop_cycles=%d and max_token_hold=%d must be ≥1", cfg.TokenHopCycles, cfg.MaxTokenHold))
	}
	bpc := float64(cfg.WavelengthsPerChannel) * cfg.GbpsPerWavelength / cfg.ClockGHz
	if bpc <= 0 {
		panic("onoc: non-positive channel capacity")
	}
	n := &Network{
		cfg:     cfg,
		nodes:   nodes,
		stats:   noc.NewStats(),
		ser:     serTable{bitsPerCycle: bpc},
		devices: photonics.DefaultDeviceParams(),
		faults:  fault.New(nodes, faults, seed),
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
	n.budget = budget
	if faults.ThermalMTBF > 0 {
		// A drift window detunes ThermalDetune of the channel's rings;
		// at least one wavelength always survives.
		avail := cfg.WavelengthsPerChannel - int(float64(cfg.WavelengthsPerChannel)*faults.ThermalDetune)
		if avail < 1 {
			avail = 1
		}
		n.serDrift = serTable{bitsPerCycle: bpc * float64(avail) / float64(cfg.WavelengthsPerChannel)}
	}
	n.derate = derateTable(n.devices, geom, budget, faults.LaserDroopDB)
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

// derateTable maps serpentine hop count → serialization multiplier under a
// drooped laser; the physics lives in photonics.RateDerateTable (shared with
// the closed-form analytic model), converted here into fabric ticks. Returns
// nil when every path still closes at full rate, which keeps the fault-free
// fast path branch-free.
func derateTable(p photonics.DeviceParams, g photonics.CrossbarGeometry, b photonics.Budget, droopDB float64) []sim.Tick {
	raw := photonics.RateDerateTable(p, g, b, droopDB)
	if raw == nil {
		return nil
	}
	tab := make([]sim.Tick, len(raw))
	for i, v := range raw {
		tab[i] = sim.Tick(v)
	}
	return tab
}

// DerateFactor returns the serialization multiplier laser droop imposes on
// the src→dst lightpath (1 when the path still closes at full rate). The
// hybrid fabric consults it to reroute blacklisted pairs over the mesh.
func (n *Network) DerateFactor(src, dst int) sim.Tick {
	if n.derate == nil || src == dst {
		return 1
	}
	return n.derate[(dst-src+n.nodes)%n.nodes]
}

// Nodes implements noc.Network.
func (n *Network) Nodes() int { return n.nodes }

// Now implements noc.Network.
func (n *Network) Now() sim.Tick { return n.now }

// Stats implements noc.Network. For this fabric, Stats().HopCount records
// token-acquisition wait cycles rather than hop counts.
func (n *Network) Stats() *noc.Stats { return n.stats }

// SetDeliver implements noc.Network.
func (n *Network) SetDeliver(fn noc.DeliverFunc) { n.deliver = fn }

// Budget exposes the resolved static photonic budget for reporting.
func (n *Network) Budget() photonics.Budget { return n.budget }

// SerializationCycles returns the nominal (fault-free) channel occupancy of
// a payload.
func (n *Network) SerializationCycles(bytes int) sim.Tick {
	return n.ser.cycles(bytes)
}

// sendSer returns the channel occupancy of one transmission under the fault
// state at the transmit instant: an active thermal drift window shrinks the
// channel's usable WDM degree, and laser droop derates lightpaths whose loss
// no longer fits the shrunken margin. Both degrade bandwidth gracefully —
// the message still goes through, just slower.
func (n *Network) sendSer(m *noc.Message) sim.Tick {
	var ser sim.Tick
	if n.faults.DriftAt(m.Dst, n.now) {
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

// propagation returns the light travel time from src to the channel reader
// dst along the serpentine (messages travel downstream only).
func (n *Network) propagation(src, dst int) sim.Tick {
	hops := (dst - src + n.nodes) % n.nodes
	p := sim.Tick(int64(hops) * n.cfg.PropagationCyclesAcross / int64(n.nodes))
	if p < 1 {
		p = 1
	}
	return p
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
	hop := sim.Tick(n.cfg.TokenHopCycles)
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
	if m.Src < 0 || m.Src >= n.nodes || m.Dst < 0 || m.Dst >= n.nodes {
		panic(fmt.Sprintf("onoc: message %d endpoints (%d->%d) out of range [0,%d)", m.ID, m.Src, m.Dst, n.nodes))
	}
	m.Inject = n.now
	n.stats.Injected++
	n.inflight++
	if m.Src == m.Dst {
		n.seq++
		n.arrivals.push(arrival{at: n.now + 1, seq: n.seq, msg: m})
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
	at := ch.tokenReady - sim.Tick(back)*sim.Tick(n.cfg.TokenHopCycles)
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
	for len(n.arrivals) > 0 && n.arrivals[0].at <= n.now {
		a := n.arrivals.pop()
		a.msg.Arrive = n.now
		n.stats.RecordDelivery(a.msg)
		n.inflight--
		if n.deliver != nil {
			n.deliver(a.msg)
		}
	}
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
	if !q.empty() && ch.holdCount < n.cfg.MaxTokenHold {
		m := q.pop()
		if q.empty() {
			ch.waiting.clear(ch.tokenPos)
		}
		ch.queued--
		ch.holdCount++
		ser := n.sendSer(m)
		oe := sim.Tick(n.cfg.OEOverheadCycles)
		prop := n.propagation(m.Src, m.Dst)
		n.stats.HopCount.Add(float64(n.now - m.Inject)) // token wait
		n.stats.QueueDelay.Add(float64(n.now - m.Inject))
		if n.shardObs != nil {
			n.shardObs(m.ID, noc.ShardObs{Start: n.now, Queue: float64(n.now - m.Inject)})
		}
		arriveAt := n.now + oe + ser + prop
		n.seq++
		n.arrivals.push(arrival{at: arriveAt, seq: n.seq, msg: m})
		n.bitsSent += uint64(m.Bytes) * 8
		n.grabs++
		// The channel is occupied for the serialization period; the
		// token resumes circulating from here afterwards.
		ch.tokenReady = n.now + ser
		ch.flying = false
		return
	}
	// Jump the token to the next waiting sender: d hops past queues that are
	// empty now (retarget handles one filling up mid-flight). A jump never
	// crosses the start of a token outage — every jumped-over moment lies
	// before it, and the landing moment takes the check above as usual.
	d := sim.Tick(ch.waiting.next(ch.tokenPos, n.nodes))
	hop := sim.Tick(n.cfg.TokenHopCycles)
	if n.faults.TokenFaults() {
		d = min(d, (n.faults.NextTokenOutage(ch.dst, n.now)-1-n.now)/hop+1)
	}
	ch.holdCount = 0
	ch.tokenPos = (ch.tokenPos + int(d)) % n.nodes
	ch.tokenReady = n.now + d*hop
	ch.flying = true
}

// Busy implements noc.Network.
func (n *Network) Busy() bool { return n.inflight > 0 }

// Lookahead implements noc.Network: the fastest cross-node interaction is a
// message that wins its token instantly — O/E conversion plus the minimum one
// cycle each of serialization and propagation.
func (n *Network) Lookahead() sim.Tick {
	la := sim.Tick(n.cfg.OEOverheadCycles) + 2
	if la < 1 {
		la = 1
	}
	return la
}

// ShardNode implements noc.ScheduleShardable. Every resource a src→dst
// message touches — the destination's home channel, its token, its per-source
// queues, its arrival stream — belongs to the destination.
func (n *Network) ShardNode(src, dst int) int { return dst }

// SetShardObs implements noc.ScheduleShardable. Like the delivery callback,
// the sink survives Reset.
func (n *Network) SetShardObs(fn noc.ShardObsFunc) { n.shardObs = fn }

// SeqOrder implements noc.ScheduleShardable: the arrival heap's tie-break seq
// is assigned when a transmission starts (or, for self-messages, at Inject),
// and Tick steps same-cycle channels in ascending dst order — so same-cycle
// deliveries complete in transmit-start order, tie-broken by dst.
func (n *Network) SeqOrder() noc.SeqOrder { return noc.SeqByService }

// NextWake implements noc.Network. A channel with queued senders next acts
// (transmits, jumps or recovers its token) at tokenReady — which every state
// transition leaves strictly in the future — so the fabric's next event is
// the earliest of the wake heap's root and the first pending arrival. Cycles
// in between are spent on light propagation, channel serialization, or token
// flight: provably unobservable. Idle token circulation is unobservable too —
// catchUp reproduces it analytically.
func (n *Network) NextWake() sim.Tick {
	wake := noc.Never
	if len(n.arrivals) > 0 {
		wake = n.arrivals[0].at
	}
	if len(n.wake) > 0 && n.wake[0].tokenReady < wake {
		wake = n.wake[0].tokenReady
	}
	return wake
}

// SkipTo implements noc.Network. tokenReady and arrival times are absolute
// and t is below every one of them, so the skip is a pure clock jump.
func (n *Network) SkipTo(t sim.Tick) {
	if t > n.now {
		n.now = t
	}
}

// Reset implements noc.Resettable: clock, statistics, queues, arrivals,
// token state and energy counters return to constructor values; the static
// photonic budget is untouched (it depends only on geometry).
func (n *Network) Reset() {
	n.now = 0
	n.stats = noc.NewStats()
	n.arrivals = n.arrivals[:0]
	clear(n.wake)
	n.wake = n.wake[:0]
	n.seq = 0
	n.inflight = 0
	n.bitsSent = 0
	n.grabs = 0
	n.regens = 0
	// Fault timelines are pure functions of (seed, faults, channel): their
	// lazily-materialized windows persist across Reset and replay
	// identically in the next round.
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
// circulation at zero load) plus O/E overhead, serialization and mean
// propagation.
func (n *Network) ZeroLoadLatency(src, dst, bytes int) sim.Tick {
	if src == dst {
		return 1
	}
	tokenWait := sim.Tick(int64(n.nodes) * n.cfg.TokenHopCycles / 2)
	ser := n.SerializationCycles(bytes)
	if n.derate != nil {
		// Laser droop is a static degradation, so the zero-load estimate
		// reflects it; transient faults (drift, token loss) do not shift
		// the expectation and are charged only when they fire.
		ser *= n.DerateFactor(src, dst)
	}
	return tokenWait + sim.Tick(n.cfg.OEOverheadCycles) + ser + n.propagation(src, dst)
}

// PowerReport implements noc.Network: static laser + ring tuning from the
// photonic budget, dynamic modulation/reception energy over the window.
func (n *Network) PowerReport(elapsed sim.Tick, clockGHz float64) noc.PowerReport {
	seconds := float64(elapsed) / (clockGHz * 1e9)
	dynPJ := n.devices.DynamicEnergyPJ(int64(n.bitsSent))
	// Charge a small electrical arbitration cost per token grab, and a
	// larger one per timeout-and-regenerate token recovery.
	const tokenGrabPJ = 0.5
	const tokenRegenPJ = 5.0
	dynPJ += float64(n.grabs) * tokenGrabPJ
	dynPJ += float64(n.regens) * tokenRegenPJ
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
	if n.regens > 0 {
		breakdown["token_regens"] = float64(n.regens)
	}
	return noc.PowerReport{
		StaticMW:  static,
		DynamicMW: dynMW,
		Breakdown: breakdown,
	}
}
