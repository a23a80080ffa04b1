package onoc

import (
	"onocsim/internal/config"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// This file keeps the crossbars' arbitration as it stood before the
// event-driven rewrite — the MWSR token stepping hop by hop over a dst-sorted
// active list that Tick, NextWake and SkipTo walk in full, the SWMR scan over
// all senders — verbatim, as a test-only reference. The reference embeds the
// production fabric for everything that is not arbitration — the physical
// layer of phys.go: admit, launch, deliverDue, the arrival queue, the fault
// schedule — and replaces Inject, Tick, NextWake and SkipTo wholesale; the
// production channels, bitsets and wake heap of the embedded fabric stay
// unused.
// differential_test.go drives both with the same traffic.

// refChannel is the pre-rewrite channel: no waiting bitset, no flight flag.
type refChannel struct {
	dst        int
	queues     []srcQueue
	queued     int
	tokenPos   int
	tokenReady sim.Tick
	holdCount  int
}

type refNetwork struct {
	*Network
	channels []*refChannel
	active   []*refChannel
}

func newRefNetwork(nodes int, hop sim.Tick, hold int, cfg config.Optical, faults config.Faults, seed uint64) *refNetwork {
	n := &refNetwork{Network: newMWSR(nodes, cfg, faults, seed, hop, hold)}
	n.channels = make([]*refChannel, nodes)
	for d := 0; d < nodes; d++ {
		// A fresh token is actionable at cycle 1, as in production (where
		// advanceToken's max(tokenReady, 1) came from): the differential test
		// compares tokenReady.
		ch := &refChannel{dst: d, tokenPos: (d + 1) % nodes, tokenReady: 1}
		ch.queues = make([]srcQueue, nodes)
		n.channels[d] = ch
	}
	return n
}

// catchUp replays an idle channel's token circulation since it last carried
// queued traffic, in closed form. Channels with no queued senders are
// skipped by Tick entirely; their hop trajectory — one hop every
// max(TokenHopCycles, 1) cycles starting at max(tokenReady, 1) — is
// reconstructed here the moment the channel matters again.
func (n *refNetwork) catchUp(ch *refChannel) {
	n.advanceToken(ch, n.now)
}

// advanceToken replays the token's hop trajectory on a channel with no
// queued senders through instant to, leaving tokenReady strictly beyond it.
// Without token faults one closed-form division suffices; with them the
// trajectory is piecewise — closed-form hopping between outage windows, with
// each actionable moment that lands inside a window losing the token until
// the timeout regenerates it at the home node. Because ticked execution
// (stepChannel) checks the same schedule at the same actionable moments,
// full ticking, idle skipping, and this catch-up all produce the identical
// (tokenPos, tokenReady) trajectory — the skip-equivalence invariant.
func (n *refNetwork) advanceToken(ch *refChannel, to sim.Tick) {
	first := ch.tokenReady
	if first < 1 {
		first = 1
	}
	if first > to {
		return
	}
	period := n.hop
	if period < 1 {
		period = 1
	}
	hop := n.hop
	if !n.faults.TokenFaults() {
		steps := (to-first)/period + 1
		ch.tokenPos = (ch.tokenPos + int(steps%sim.Tick(n.nodes))) % n.nodes
		ch.holdCount = 0
		ch.tokenReady = first + (steps-1)*period + hop
		return
	}
	if hop < 1 {
		hop = period // degenerate configs: keep the loop advancing
	}
	m, pos := first, ch.tokenPos
	for m <= to {
		if end, ok := n.faults.TokenOutage(ch.dst, m); ok {
			n.stats.Faults.TokenLosses++
			n.regens++
			pos = (ch.dst + 1) % n.nodes
			m = end
			continue
		}
		limit := to
		if next := n.faults.NextTokenOutage(ch.dst, m); next-1 < limit {
			limit = next - 1
		}
		steps := (limit-m)/period + 1
		pos = (pos + int(steps%sim.Tick(n.nodes))) % n.nodes
		m += (steps-1)*period + hop
	}
	ch.tokenPos = pos
	ch.holdCount = 0
	ch.tokenReady = m
}

// Inject implements noc.Network.
func (n *refNetwork) Inject(m *noc.Message) {
	if !n.admit(m) {
		return
	}
	ch := n.channels[m.Dst]
	if ch.queued == 0 {
		n.catchUp(ch)
		n.insertActive(ch)
	}
	ch.queues[m.Src].push(m)
	ch.queued++
}

// insertActive adds a newly-queued channel to the active list, keeping it
// sorted by dst. The list is short under realistic load, so a linear shift
// beats any cleverer structure.
func (n *refNetwork) insertActive(ch *refChannel) {
	i := len(n.active)
	for i > 0 && n.active[i-1].dst > ch.dst {
		i--
	}
	n.active = append(n.active, nil)
	copy(n.active[i+1:], n.active[i:])
	n.active[i] = ch
}

// Tick implements noc.Network: deliver due arrivals, then advance every
// channel's token/transmission state by one cycle.
func (n *refNetwork) Tick() {
	n.now++
	n.deliverDue()
	// Idle channels circulate their token lazily (see catchUp); only the
	// active list does per-cycle work. Channels drained by stepChannel are
	// compacted out in place.
	if len(n.active) > 0 {
		w := 0
		for _, ch := range n.active {
			n.stepChannel(ch)
			if ch.queued > 0 {
				n.active[w] = ch
				w++
			}
		}
		for i := w; i < len(n.active); i++ {
			n.active[i] = nil
		}
		n.active = n.active[:w]
	}
}

// stepChannel advances one channel: either start a transmission at the
// token's current position, or circulate the token.
func (n *refNetwork) stepChannel(ch *refChannel) {
	if ch.tokenReady > n.now {
		return // token in flight or channel transmitting
	}
	// A lost token stalls the whole channel until the timeout regenerates
	// it at the home node. The check runs at actionable moments only
	// (now == tokenReady), matching advanceToken's idle-path replay.
	if end, ok := n.faults.TokenOutage(ch.dst, n.now); ok {
		n.stats.Faults.TokenLosses++
		n.regens++
		ch.tokenPos = (ch.dst + 1) % n.nodes
		ch.holdCount = 0
		ch.tokenReady = end
		return
	}
	q := &ch.queues[ch.tokenPos]
	if !q.empty() && ch.holdCount < n.maxHold {
		m := q.pop()
		ch.queued--
		ch.holdCount++
		n.grabs++
		// The channel is occupied for the serialization period; the
		// token resumes circulating from here afterwards.
		ch.tokenReady = n.now + n.launch(m, ch.dst)
		return
	}
	// Advance the token to the next node.
	ch.holdCount = 0
	ch.tokenPos = (ch.tokenPos + 1) % n.nodes
	ch.tokenReady = n.now + n.hop
}

// NextWake implements noc.Network. An active channel next acts (transmits or
// hops) at tokenReady — which every state transition leaves strictly in the
// future — so the fabric's next event is the earliest of that and the first
// pending arrival. Cycles in between are spent on light propagation, channel
// serialization, or token flight: provably unobservable. Idle token
// circulation is also unobservable — catchUp and SkipTo reproduce it
// analytically.
func (n *refNetwork) NextWake() sim.Tick {
	wake := n.arrivals.NextAt()
	next := n.now + 1
	for _, ch := range n.active {
		if ch.tokenReady <= next {
			return next
		}
		if ch.tokenReady < wake {
			wake = ch.tokenReady
		}
	}
	return wake
}

// SkipTo implements noc.Network: jump the clock and advance every active
// channel's arbitration token exactly as the skipped Ticks would have, in
// closed form. t is below NextWake, so no transmission starts in the skipped
// stretch and any channel action is a hop: one every max(TokenHopCycles, 1)
// cycles starting at max(tokenReady, now+1), holdCount reset by the first.
// (With NextWake bounding t below every active tokenReady the loop body is
// all continues; it is kept general so SkipTo is safe for any t < NextWake
// an implementation revision might permit.) Idle channels are untouched —
// they circulate lazily via catchUp.
func (n *refNetwork) SkipTo(t sim.Tick) {
	if t <= n.now {
		return
	}
	// Every state transition leaves tokenReady strictly beyond now, so
	// advanceToken's max(tokenReady, 1) start equals the max(tokenReady,
	// now+1) this loop historically used; sharing the helper keeps the
	// skipped trajectory — including any token losses discovered inside the
	// stretch — byte-identical to catchUp's and to ticked execution's.
	for _, ch := range n.active {
		n.advanceToken(ch, t)
	}
	n.now = t
}

// refSWMR is the pre-rewrite SWMR arbitration: Tick and NextWake scan every
// sender. Inject, SkipTo and the rest are the production fabric's.
type refSWMR struct{ *swmr }

// Tick implements noc.Network.
func (n *refSWMR) Tick() {
	n.now++
	n.deliverDue()
	for s := 0; s < n.nodes; s++ {
		if n.queues[s].empty() || n.chanFree[s] > n.now {
			continue
		}
		m := n.queues[s].pop()
		n.chanFree[s] = n.now + n.launch(m, s)
	}
}

// NextWake implements noc.Network. With no arbitration there is no hidden
// per-cycle state: the next observable action is either the earliest
// arrival or the first cycle a backlogged sender's channel frees up, both
// known exactly.
func (n *refSWMR) NextWake() sim.Tick {
	wake := n.arrivals.NextAt()
	for s := 0; s < n.nodes; s++ {
		if n.queues[s].empty() {
			continue
		}
		next := n.chanFree[s]
		if next < n.now+1 {
			next = n.now + 1
		}
		if next < wake {
			wake = next
		}
	}
	return wake
}
