// Package noc defines the interconnect abstraction shared by every fabric in
// onocsim — the electrical mesh, the MWSR and SWMR optical crossbars, the
// mesh/crossbar hybrid and the ideal reference network — together with what
// they all have in common: the message type, the due-delivery queue, the
// injection and delivery counters and power reporting. A fabric keeps no
// latency statistics: a delivered message carries its Inject and Arrive
// cycles, and the receiver summarises them.
//
// All fabrics are synchronous cycle-level models: the owner calls Tick once
// per system clock cycle, injects messages at the current cycle, and receives
// deliveries through a callback. This single contract is what lets the
// execution-driven system, the naive trace replayer, and the self-correction
// engine run unmodified on any fabric.
package noc

import "onocsim/internal/sim"

// Class partitions messages into virtual networks so that request/response
// protocol cycles cannot deadlock in the fabric.
type Class uint8

const (
	// ClassRequest carries coherence/sync requests.
	ClassRequest Class = iota
	// ClassResponse carries data and acknowledgement responses.
	ClassResponse
	// ClassWriteback carries evictions and releases.
	ClassWriteback
	// NumClasses is the number of virtual networks.
	NumClasses
)

// String names the class for reports.
func (c Class) String() string {
	switch c {
	case ClassRequest:
		return "request"
	case ClassResponse:
		return "response"
	case ClassWriteback:
		return "writeback"
	default:
		return "invalid"
	}
}

// Message is one network transaction. The fabric treats Payload as opaque
// and guarantees delivery of every injected message exactly once.
type Message struct {
	// ID is unique per simulation and assigned by the producer.
	ID uint64
	// Src and Dst are node indices in [0, Nodes).
	Src, Dst int
	// Bytes is the payload size; the fabric derives flit/serialization
	// counts from it.
	Bytes int
	// Class selects the virtual network.
	Class Class
	// Inject and Arrive are stamped by the fabric.
	Inject, Arrive sim.Tick
	// Payload is delivered untouched to the destination.
	Payload interface{}
}

// Latency returns the end-to-end message latency; it is only meaningful
// after delivery.
func (m *Message) Latency() sim.Tick { return m.Arrive - m.Inject }

// DeliverFunc receives a message at its destination node.
//
// Ownership: the fabric guarantees it holds no reference to m after the
// callback returns, so the receiver may recycle the Message (see MsgPool)
// once it has copied out what it needs.
type DeliverFunc func(m *Message)

// Never is the NextWake sentinel meaning "no observable work pending": the
// fabric will stay silent forever unless something new is injected. It is
// sim.Never, so it compares above every reachable cycle in a min-reduction.
const Never = sim.Never

// Network is the fabric contract.
type Network interface {
	// Nodes returns the endpoint count.
	Nodes() int
	// Inject enqueues m at its source at the current cycle. Injection
	// never fails: fabrics apply backpressure internally by queueing at
	// the network interface. Self-messages (Src == Dst) are delivered on
	// the next Tick without touching the fabric. An Inject made from inside
	// a DeliverFunc happens at the cycle being ticked and is visible to
	// that cycle's arbitration (fabrics deliver before they arbitrate): the
	// message may win its channel or enter the mesh in the same Tick. One
	// made between Ticks competes from the next cycle on.
	Inject(m *Message)
	// Tick advances the fabric by one system clock cycle.
	Tick()
	// Now returns the current cycle (number of completed Ticks).
	Now() sim.Tick
	// SetDeliver registers the delivery callback; it must be set before
	// the first Tick that could deliver.
	SetDeliver(fn DeliverFunc)
	// Stats returns a copy of the fabric's counters.
	Stats() Stats
	// ZeroLoadLatency estimates the uncontended latency of a message of
	// the given size between two nodes; the self-correction engine uses
	// it to seed its first iteration.
	ZeroLoadLatency(src, dst, bytes int) sim.Tick
	// PowerReport resolves the power model over a window of elapsed
	// cycles, converted to seconds at the fabric's own clock.
	PowerReport(elapsed sim.Tick) PowerReport
	// NextWake returns the earliest future cycle at which the fabric
	// could perform observable work — deliver a message, move a flit,
	// start a transmission — assuming nothing new is injected, or Now()+1
	// whenever it cannot cheaply bound the next action. It returns Never
	// exactly when no message is queued or in flight: NextWake() != Never is
	// the fabric's busy test. The invariant owners rely on:
	// every Tick strictly before NextWake is observationally a no-op, so
	// the stretch may be skipped with SkipTo.
	NextWake() sim.Tick
	// SkipTo fast-forwards the fabric clock to cycle t without ticking
	// the cycles in between. The caller must guarantee Now() ≤ t <
	// NextWake(); the fabric updates any time-dependent internal state
	// (e.g. arbitration token positions) analytically so that subsequent
	// Ticks behave exactly as if each skipped cycle had been ticked.
	SkipTo(t sim.Tick)
}

// ShardObsFunc, SeqOrder and ScheduleShardable remain only because the
// benchmark harness names them; no fabric implements ScheduleShardable. A
// replay runs on one fabric: splitting it across replica fabrics, one per
// group of nodes, never changed a result and was slower end to end
// (DESIGN §6).
type ShardObsFunc func(id uint64)

// SeqOrder is not consulted; see ShardObsFunc.
type SeqOrder int

// ScheduleShardable is implemented by no fabric; see ShardObsFunc.
type ScheduleShardable interface {
	Network
	ShardNode(src, dst int) int
	SetShardObs(fn ShardObsFunc)
	SeqOrder() SeqOrder
}

// Snapshot is an opaque deep copy of a fabric's mutable state, produced by
// Checkpointer.Snapshot. A snapshot owns every piece of state it captures —
// cloned messages, the counters, copied queues — so the live fabric may
// keep running (or be Reset) without invalidating it. SnapshotAt reports the
// fabric clock at capture time.
type Snapshot interface {
	SnapshotAt() sim.Tick
}

// Checkpointer is implemented by fabrics whose full mutable state can be
// captured mid-run and restored later. No product code calls it: every
// correction round replays in full from cycle zero, and the fabrics keep
// their Snapshot/Restore only for the benchmark's snapshot probe and
// decorator (DESIGN.md §12), to be deleted together with them.
//
// The contract mirrors Resettable: Restore(s) must leave the fabric
// observationally identical to the one Snapshot was called on at that
// instant — clock, statistics, every queued and in-flight message,
// arbitration state (token positions, credits, round-robin pointers), and
// fault counters. Like Reset, the delivery callback is deliberately left in
// place. Restore deep-copies *from* the snapshot, so one snapshot may be
// restored any number of times, onto the originating instance or any
// identically configured one. State that is immutable or a pure function of
// the configuration (topology wiring, photonic budgets, lazily materialized
// fault timelines, serialization memo tables, free lists) is exempt.
type Checkpointer interface {
	// Snapshot captures the fabric's mutable state at the current cycle.
	Snapshot() Snapshot
	// Restore rewinds the fabric to the captured state. It panics if s was
	// produced by a different fabric kind or configuration shape.
	Restore(s Snapshot)
}

// Resettable is implemented by fabrics that can return to their
// just-constructed state, letting owners reuse one network across
// independent runs instead of rebuilding it. Reset must restore the clock
// to zero, drop all queued and in-flight traffic, zero every counter, and
// re-arm arbitration state (token positions, credits, round-robin pointers)
// to the constructor values. The delivery callback is deliberately left in
// place; callers that need a different sink call SetDeliver again.
type Resettable interface {
	Reset()
}

// SkipIdle advances net to cycle target using NextWake/SkipTo: stretches
// the fabric provably sleeps through are jumped in O(1), cycles with work
// are ticked normally. It is the drain-loop helper shared by the replay
// engines and the synthetic harness.
func SkipIdle(net Network, target sim.Tick) {
	for net.Now() < target {
		if wake := net.NextWake(); wake > net.Now()+1 {
			if wake > target {
				wake = target + 1
			}
			net.SkipTo(wake - 1)
			if net.Now() >= target {
				return
			}
		}
		net.Tick()
	}
}

// MsgPool recycles Message allocations inside one goroutine-confined
// simulation. Producers Get a zeroed message, fill it and Inject it; once
// the delivery callback has copied out what it needs it may Put the message
// back. It is deliberately not safe for concurrent use — simulations are
// single-goroutine by design, and a sync.Pool would add contention and
// nondeterministic reuse for nothing.
type MsgPool struct {
	free []*Message
	// block is the unused rest of the block fresh messages are carved from,
	// so a pool's warm-up costs one allocation per msgBlock messages.
	block []Message
}

// msgBlock is how many messages one pool allocation makes room for.
const msgBlock = 32

// Get returns a zeroed message, recycled when possible.
func (p *MsgPool) Get() *Message {
	if n := len(p.free); n > 0 {
		m := p.free[n-1]
		p.free[n-1] = nil
		p.free = p.free[:n-1]
		*m = Message{}
		return m
	}
	if len(p.block) == 0 {
		p.block = make([]Message, msgBlock)
	}
	m := &p.block[0]
	p.block = p.block[1:]
	return m
}

// Put returns a delivered message to the pool. The caller must not touch m
// afterwards.
func (p *MsgPool) Put(m *Message) {
	p.free = append(p.free, m)
}

// Stats holds the counters every fabric keeps: plain sums, so a block does not
// depend on the order its events arrived in, and Merge of two blocks equals
// the block of both event streams, which is how the hybrid sums its two
// sub-fabrics. A fabric counts what it moves and nothing
// more: a message's latency is Arrive − Inject, and whoever receives the
// message summarises it.
type Stats struct {
	Injected  uint64
	Delivered uint64
	// BytesDelivered totals payload bytes that completed.
	BytesDelivered uint64
	// Faults counts injected-fault events the fabric absorbed (all zero on
	// fault-free runs).
	Faults FaultCounts
}

// FaultCounts tallies fault events by class. Each event is attributable to
// exactly one channel, and every counter is a plain sum.
type FaultCounts struct {
	// TokenLosses counts lost-token events (each stalls one MWSR home
	// channel until its timeout-and-regenerate recovery fires).
	TokenLosses uint64
	// DriftedSends counts transmissions serialized at reduced WDM degree
	// because a thermal drift window detuned part of the channel's rings.
	DriftedSends uint64
	// DeratedSends counts transmissions slowed because laser droop left
	// their lightpath short of margin at full modulation rate.
	DeratedSends uint64
	// Rerouted counts messages the hybrid fabric diverted to the
	// electrical mesh because their optical path was blacklisted.
	Rerouted uint64
}

// Add accumulates another tally.
func (f *FaultCounts) Add(o FaultCounts) {
	f.TokenLosses += o.TokenLosses
	f.DriftedSends += o.DriftedSends
	f.DeratedSends += o.DeratedSends
	f.Rerouted += o.Rerouted
}

// Merge folds o into s: afterwards s equals the block that counting both
// event streams, interleaved in any order, would have built.
func (s *Stats) Merge(o Stats) {
	s.Injected += o.Injected
	s.Delivered += o.Delivered
	s.BytesDelivered += o.BytesDelivered
	s.Faults.Add(o.Faults)
}

// CountDelivery counts one completed message.
func (s *Stats) CountDelivery(m *Message) {
	s.Delivered++
	s.BytesDelivered += uint64(m.Bytes)
}

// PowerReport is the resolved power of a fabric over a measurement window.
type PowerReport struct {
	// StaticMW is load-independent power (leakage, laser, ring tuning).
	StaticMW float64
	// DynamicMW is activity-proportional power averaged over the window.
	DynamicMW float64
	// Breakdown itemizes contributions by component name.
	Breakdown map[string]float64
}

// TotalMW returns static plus dynamic power.
func (p PowerReport) TotalMW() float64 { return p.StaticMW + p.DynamicMW }
