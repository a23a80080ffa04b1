package core

import (
	"fmt"
	"slices"
	"sync"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// ReplayResult reports one trace replay on a target fabric.
type ReplayResult struct {
	// Inject and Arrive are the realized per-event times (indexed by
	// event ID minus one). A schedule-driven replay injects every event at
	// exactly its scheduled cycle, so its Inject is the schedule it was
	// handed, the same slice; CoupledReplay's are its own.
	Inject []sim.Tick
	Arrive []sim.Tick
	// Makespan estimates total application time: the last arrival plus
	// the capture run's trailing computation (the tail after its own last
	// arrival, which the network cannot change).
	Makespan sim.Tick
	// MeanLatency is the mean realized message latency in cycles.
	MeanLatency float64
	// Cycles is how long the fabric was ticked.
	Cycles sim.Tick
	// NetStats is a copy of the fabric's counters at the end of the run.
	NetStats *noc.Stats
}

// statsOf returns a copy of net's counters.
func statsOf(net noc.Network) *noc.Stats {
	st := net.Stats()
	return &st
}

// Latencies returns the realized per-event latencies, suitable as the next
// correction iteration's estimates.
func (r *ReplayResult) Latencies() []sim.Tick {
	out := make([]sim.Tick, len(r.Inject))
	for i := range out {
		out[i] = r.Arrive[i] - r.Inject[i]
	}
	return out
}

// checkFabric verifies a fabric handed to a replay is fresh (at time zero,
// no prior traffic) and sized for the trace.
func checkFabric(net noc.Network, nodes int) error {
	if net.Now() != 0 {
		return fmt.Errorf("core: replay fabric is not fresh (now=%d)", net.Now())
	}
	if net.Nodes() != nodes {
		return fmt.Errorf("core: fabric has %d nodes, trace has %d", net.Nodes(), nodes)
	}
	return nil
}

// drain is the replay loop, the only one in the package that ticks a fabric:
// it injects what the feed says is due, fast-forwards to the next injection
// or fabric event, and ticks, until want deliveries have been recorded
// through the fabric's delivery callback, which must increment *delivered.
// The feed decides what kind of replay this is: a fixed schedule decoded from
// a trace.Source (streamDecoder, captureFeed) or dependencies resolved on the
// fabric as deliveries complete (coupledFeed).
func drain(net noc.Network, f feed, pool *noc.MsgPool, delivered *int, want int) error {
	var lastInj sim.Tick
	for *delivered < want {
		now := net.Now()
		if err := f.injectDue(now, net, pool); err != nil {
			return err
		}
		// Fast-forward to the next injection or fabric event; the cycles
		// in between are provably idle.
		wake := net.NextWake()
		if t := f.nextInject(wake); t < sim.Never {
			lastInj = t
			if t < wake {
				wake = t
			}
		}
		if wake == noc.Never {
			// Nothing pending and nothing left to inject: the fabric
			// swallowed a message.
			return fmt.Errorf("replay did not drain (%d/%d delivered)", *delivered, want)
		}
		if wake > now+1 {
			net.SkipTo(wake - 1)
		}
		net.Tick()
		// Guard against fabric bugs swallowing messages: lastInj is the
		// last injection once the feed has run dry.
		if net.Now() > lastInj+sim.Tick(1_000_000_000) {
			return fmt.Errorf("replay did not drain (%d/%d delivered)", *delivered, want)
		}
	}
	return nil
}

// refTail is the capture run's trailing computation: what its makespan adds
// after its own last arrival.
func refTail(refMakespan, maxRef sim.Tick) sim.Tick {
	if tail := refMakespan - maxRef; tail > 0 {
		return tail
	}
	return 0
}

// finalize computes makespan and mean latency from the realized times;
// maxRef is the capture run's last arrival. The caller installs Cycles and
// NetStats.
func finalize(res *ReplayResult, refMakespan, maxRef sim.Tick) {
	var maxArr sim.Tick
	var sum float64
	for i := range res.Arrive {
		if res.Arrive[i] > maxArr {
			maxArr = res.Arrive[i]
		}
		sum += float64(res.Arrive[i] - res.Inject[i])
	}
	res.Makespan = maxArr + refTail(refMakespan, maxRef)
	if len(res.Arrive) > 0 {
		res.MeanLatency = sum / float64(len(res.Arrive))
	}
}

// replayer is the replay engine: it replays one trace.Source on fabrics from
// one factory, each replay from cycle zero on one of its slots. Every replay
// that keeps per-event vectors runs through its one lane method, replay,
// whatever its feed:
//
//   - the schedule feed (stream.go) decodes the source inside a bounded
//     read-ahead window, a resident trace being the unbounded case; run
//     replays a whole schedule through it, and with K > 1 on a
//     noc.ScheduleShardable fabric splits the events over K slots
//     (sharded.go), each drained to completion in its own goroutine;
//   - the coupled feed releases an event once its dependencies have arrived
//     on the fabric (CoupledReplay, and a correction's coupled seed);
//   - the follower derives an overlapped round's schedule from the round
//     before it as that round delivers (overlap.go).
//
// Results are byte-identical whichever parts are in play.
//
// Why K independent drains are exact: schedule-driven replay fixes every
// injection time up front — deliveries never feed back into injections — so
// the only coupling between messages is contention for fabric resources. On a
// noc.ScheduleShardable fabric every resource a src→dst message touches is
// owned by the single node ShardNode(src, dst): the MWSR crossbar arbitrates
// per destination channel, SWMR serializes per source channel, the ideal
// fabric caps bandwidth per source port. Partitioning nodes across K replica
// fabrics and handing each replica only the messages of the nodes it owns
// therefore evolves every owned resource exactly as the serial run does. The
// partition has zero cross-shard channels, so no replica ever waits for
// another: each runs to completion on its own, with no window and no
// barrier.
//
// Per-message times then match the serial run by the skip-equivalence
// invariant (every Tick strictly before NextWake is a no-op). Each replica
// counts exactly what the serial run counts for its owned events, and a
// noc.Stats block is a set of plain sums, so the replicas' blocks merged are
// the serial block.
//
// Fabrics that do not implement noc.ScheduleShardable (the wormhole mesh,
// whose flits contend for shared links every cycle, and the hybrid fabric
// that embeds it) run serially whatever K says.
//
// A replayer is not safe for concurrent use. An overlapped correction round
// replays on one of its slots from a goroutine of its own, never a slot a run
// or another round is using; slots are added only while no round runs.
type replayer struct {
	factory NetworkFactory
	src     trace.Source
	meta    trace.Meta
	shards  int // requested K, clamped to [1, nodes] per run
	window  int // cap on each drain's pending events; 0 = unbounded

	slots []slot
	part  *partition // K > 1 only; see sharded.go

	// next is where a run derives the next schedule; nil derives none. The
	// correction sets it, and the deriver's options.
	next []sim.Tick
	// Storage every run reuses: the per-block suffix minima of its schedule,
	// and the deriver.
	bm     []sim.Tick
	derive deriver
}

// slot is one lane of the replayer: its fabric — a Resettable instance is
// reset between replays instead of rebuilt — and what the replays on it
// reuse: the message pool, the arrival vector, the delivery log a following
// round reads, and the schedule feed's pending queue and bound cursor.
type slot struct {
	net  noc.Network
	used bool
	pool noc.MsgPool
	// arrive is a replay's Arrive: zero until the event is delivered (every
	// fabric delivers at Arrive > Inject ≥ 0), so it is the delivered mark
	// too. The next replay on the slot clears it.
	arrive []sim.Tick
	// followed has the next replay on the slot publish its deliveries to
	// log, for a round that follows it; armLog sets it.
	followed  bool
	log       *deliveryLog
	delivered int
	err       error // the last drain's
	pending   sim.Calendar[pendingMsg]
	cur       [minBlock]sim.Tick
}

// arrivals returns the slot's arrival vector, sized for n events.
func (sl *slot) arrivals(n int) []sim.Tick {
	if sl.arrive == nil || len(sl.arrive) != n {
		sl.arrive = make([]sim.Tick, n)
	}
	return sl.arrive
}

// armLog readies the slot's log for a replay of n events that another round
// follows, and has that replay publish to it. It is called before the
// following round can read the log.
func (sl *slot) armLog(n int) {
	if sl.log == nil {
		sl.log = new(deliveryLog)
	}
	sl.log.reset(n)
	sl.followed = true
}

func newReplayer(factory NetworkFactory, src trace.Source, shards, window int) *replayer {
	return &replayer{factory: factory, src: src, meta: src.Meta(), shards: shards, window: readAhead(src, window)}
}

// fabric returns the long-lived instance of slot i, as it was left, adding
// the slots up to i first. Slot 0 doubles as the zero-load probe: a probe
// never ticks, so the instance is still fresh for the first replay.
func (r *replayer) fabric(i int) noc.Network {
	for len(r.slots) <= i {
		r.slots = append(r.slots, slot{net: r.factory(), pending: sim.NewCalendar[pendingMsg](ringTicks)})
	}
	return r.slots[i].net
}

// lanes is how many fabrics a run splits over: K, clamped to the node count,
// on a noc.ScheduleShardable fabric, and 1 on any other, and on one the lane
// method will refuse for its node count.
func (r *replayer) lanes() int {
	net0 := r.fabric(0)
	if _, ok := net0.(noc.ScheduleShardable); ok && net0.Nodes() == r.meta.Nodes {
		return max(min(r.shards, net0.Nodes()), 1)
	}
	return 1
}

// deriveAll derives into next the schedule a finished run's latencies give
// (ScheduleStream with r.derive.opts), in one more pass over the source.
func (r *replayer) deriveAll(next []sim.Tick, res ReplayResult) error {
	r.derive.reset(next, res.Arrive, res.Inject, false)
	return EachEvent(r.src, r.derive.offer)
}

// replay is the lane method, the one way a replay with per-event vectors
// runs: it takes slots lo, lo+1, … fresh, one per feed, installs on each the
// only delivery callback — write Arrive, run the feed's delivery hook if it
// has one, publish to the slot's log when a round follows it, count,
// recycle — drains each on its feed, and assembles the result. Its Inject is
// the inject passed in, and its Arrive slot lo's arrival vector, which every
// lane writes at the indices of the events its feed owns. One lane drains in
// the caller's goroutine; several (a K > 1 run's, each delivering the events
// r.part gives it) drain in one goroutine each.
func (r *replayer) replay(lo int, inject []sim.Tick, feeds ...feed) (ReplayResult, error) {
	n, k := r.meta.NumEvents, len(feeds)
	r.fabric(lo + k - 1) // every slot exists before a callback points into one
	arrive := r.slots[lo].arrivals(n)
	clear(arrive)
	for s, f := range feeds {
		sl := &r.slots[lo+s]
		// Take the slot fresh: reset its fabric, or build another.
		if rs, ok := sl.net.(noc.Resettable); ok && sl.used {
			rs.Reset()
		} else if sl.used {
			sl.net = r.factory()
		}
		if err := checkFabric(sl.net, r.meta.Nodes); err != nil {
			return ReplayResult{}, err
		}
		sl.used, sl.delivered = true, 0
		hook, _ := f.(deliveryHook)
		var log *deliveryLog
		if sl.followed {
			log, sl.followed = sl.log, false
		}
		sl.net.SetDeliver(func(m *noc.Message) {
			idx := int(m.ID) - 1
			arrive[idx] = m.Arrive
			if hook != nil {
				hook.delivered(idx, m)
			}
			if log != nil {
				log.publish(idx)
			}
			sl.delivered++
			sl.pool.Put(m)
		})
	}
	// The lane captures nothing, so a one-lane replay allocates no closure.
	lane := func(sl *slot, f feed, want int) {
		sl.err = drain(sl.net, f, &sl.pool, &sl.delivered, want)
	}
	if k == 1 {
		lane(&r.slots[lo], feeds[0], n)
	} else {
		var wg sync.WaitGroup
		for s, f := range feeds {
			wg.Add(1)
			go func() {
				defer wg.Done()
				lane(&r.slots[lo+s], f, r.part.want[s])
			}()
		}
		wg.Wait()
	}

	res := ReplayResult{Inject: inject, Arrive: arrive, NetStats: new(noc.Stats)}
	var maxRef sim.Tick
	for s := range feeds {
		if err := r.slots[lo+s].err; err != nil {
			if k > 1 {
				return ReplayResult{}, fmt.Errorf("core: shard %d/%d: %w", s, k, err)
			}
			return ReplayResult{}, fmt.Errorf("core: %w", err)
		}
		// Each lane's drain exits on the Tick that delivers its last message,
		// so the latest clock is the last arrival.
		net := r.slots[lo+s].net
		res.Cycles = max(res.Cycles, net.Now())
		res.NetStats.Merge(net.Stats())
		maxRef = max(maxRef, feeds[s].lastRef())
	}
	finalize(&res, r.meta.RefMakespan, maxRef)
	return res, nil
}

// run injects every event of the source at the given absolute times and runs
// the fabric(s) until all are delivered. With r.next non-nil it also derives
// into it the schedule the realized latencies give (ScheduleStream with
// r.derive.opts): during the replay itself for K = 1, in one more pass over
// the source for K > 1. The result is valid until the next run: its Inject is
// the inject slice passed in, and its Arrive is slot 0's arrival vector,
// which the next run overwrites.
func (r *replayer) run(inject []sim.Tick) (ReplayResult, error) {
	n, next := r.meta.NumEvents, r.next
	if len(inject) != n {
		return ReplayResult{}, fmt.Errorf("core: %d injection times for %d events", len(inject), n)
	}
	k := r.lanes()
	if k > 1 {
		if err := r.split(r.fabric(0).(noc.ScheduleShardable), k); err != nil {
			return ReplayResult{}, err
		}
	}
	r.fabric(k - 1) // every slot exists before a decoder points into one
	r.bm = blockMins(r.bm, inject)
	decs, feeds := make([]streamDecoder, k), make([]feed, k)
	for s := range decs {
		// Each lane opens its own pass: a lane keeps only the events it owns.
		it, err := r.src.Pass()
		if err != nil {
			return ReplayResult{}, err
		}
		defer it.Close()
		sl := &r.slots[s]
		sl.pending.Reset()
		decs[s] = streamDecoder{it: it, inject: inject, bm: r.bm, window: r.window, pending: &sl.pending, cur: &sl.cur}
		if k > 1 {
			decs[s].own = func(idx int) bool { return r.part.owner(idx) == s }
		}
		feeds[s] = &decs[s]
	}
	if next != nil && k == 1 {
		r.derive.reset(next, r.slots[0].arrivals(n), inject, true)
		decs[0].derive = &r.derive
	}
	res, err := r.replay(0, inject, feeds...)
	if err != nil || next == nil {
		return res, err
	}
	if k == 1 {
		// Every event was decoded before it was injected, so the deriver has
		// been offered them all; the last Tick's deliveries remain.
		r.derive.advance()
	} else if err := r.deriveAll(next, res); err != nil {
		return ReplayResult{}, err
	}
	return res, nil
}

// ReplaySchedule injects every trace event into net at the given absolute
// times and runs the fabric until all are delivered. The fabric must be
// fresh (at time zero, no prior traffic).
func ReplaySchedule(net noc.Network, tr *trace.Trace, inject []sim.Tick) (ReplayResult, error) {
	return ReplayScheduleStream(net, tr, inject, 0)
}

// ReplayScheduleStream is ReplaySchedule over a trace.Source, holding at
// most `window` decoded-but-not-yet-due events resident (0 selects
// trace.DefaultWindow, trace.Unbounded lifts the cap; a resident source is
// never capped).
func ReplayScheduleStream(net noc.Network, src trace.Source, inject []sim.Tick, window int) (ReplayResult, error) {
	return newReplayer(func() noc.Network { return net }, src, 1, window).run(inject)
}

// ReplayScheduleSharded replays a schedule across the given number of shards;
// the result is byte-identical to ReplaySchedule's for any count.
func ReplayScheduleSharded(factory NetworkFactory, tr *trace.Trace, inject []sim.Tick, shards int) (ReplayResult, error) {
	return newReplayer(factory, tr, shards, 0).run(inject)
}

// NaiveReplay replays the trace at its recorded capture-network timestamps —
// the conventional trace-driven methodology the paper shows to be wrong on a
// fabric with different timing.
func NaiveReplay(net noc.Network, tr *trace.Trace) (ReplayResult, error) {
	return NaiveReplayStream(func() noc.Network { return net }, tr, 1, 0)
}

// NaiveReplaySharded is NaiveReplay across the given number of shards.
func NaiveReplaySharded(factory NetworkFactory, tr *trace.Trace, shards int) (ReplayResult, error) {
	return NaiveReplayStream(factory, tr, shards, 0)
}

// NaiveReplayStream is NaiveReplaySharded over a trace.Source: one pass
// collects the recorded injection times, a second replays them, and the
// collected times are the result's Inject. Window semantics match
// ReplayScheduleStream.
func NaiveReplayStream(factory NetworkFactory, src trace.Source, shards, window int) (ReplayResult, error) {
	inject := make([]sim.Tick, src.Meta().NumEvents)
	if err := EachEvent(src, func(i int, e *trace.Event) { inject[i] = e.RefInject }); err != nil {
		return ReplayResult{}, err
	}
	return newReplayer(factory, src, shards, window).run(inject)
}

// CoupledReplay resolves dependencies *inside* the network simulation: an
// event is injected its gap after its last dependency physically arrives on
// the target fabric. One replay, no estimates: its latencies are the exact
// fixpoint of the self-correction loop, which stops on them in round 0 with a
// Final equal to this result. One pass over src builds the reverse-dependency
// index (the one overlapped correction rounds use) and keeps every event's
// payload, so a coupled replay holds O(events + edges) resident whatever the
// source, in a handful of allocations whatever its length. It runs on a
// one-slot replayer over net, which must be fresh.
func CoupledReplay(net noc.Network, src trace.Source, opts ScheduleOptions) (ReplayResult, error) {
	return newReplayer(func() noc.Network { return net }, src, 1, 0).coupled(opts)
}

// coupled runs a coupled replay on slot 0. Its Inject is a vector of its own,
// and its Arrive is the slot's, which the next replay there overwrites.
func (r *replayer) coupled(opts ScheduleOptions) (ReplayResult, error) {
	n := r.meta.NumEvents
	f := &coupledFeed{events: make([]pendingMsg, n), inject: make([]sim.Tick, n), dueQueue: newDueQueue()}
	ix, err := buildRevDeps(r.src, opts, func(i int, e *trace.Event) {
		f.events[i] = pendingMsg{at: e.Gap, src: e.Src, dst: e.Dst, bytes: e.Bytes, class: e.Class}
		f.maxRef = max(f.maxRef, e.RefArrive)
	})
	if err != nil {
		return ReplayResult{}, err
	}
	f.ix = ix
	for i := range f.events {
		if ix.deps[i] == 0 {
			f.inject[i] = f.events[i].at
			f.pending.Push(f.inject[i], int32(i))
		}
	}
	// A drain that runs out of wake-ups with deliveries outstanding means the
	// dependency graph (or the fabric) has deadlocked.
	return r.replay(0, f.inject, f)
}

// coupledFeed is the feed of a coupled replay. Its delivery hook folds each
// arrival into the dependents' injection times and pushes each event whose
// dependencies have all arrived on the target fabric onto its dueQueue, for
// the cycle its gap ends; injectDue releases them in the (time, ID) order of
// every feed, which makes a coupled replay the exact fixpoint of the
// correction loop. An event is injected at exactly the cycle it is released
// at, so inject, filled in as it is pushed, is also the realized injection.
type coupledFeed struct {
	events []pendingMsg // every event's payload, its gap in at
	ix     *revDeps     // its deps count each event's kept dependencies not yet arrived
	inject []sim.Tick   // the latest dependency arrival plus gap folded in so far
	maxRef sim.Tick
	dueQueue
}

func (f *coupledFeed) delivered(idx int, m *noc.Message) {
	for _, c := range f.ix.children(idx) {
		f.inject[c] = max(f.inject[c], m.Arrive+f.events[c].at)
		if f.ix.deps[c]--; f.ix.deps[c] == 0 {
			f.pending.Push(f.inject[c], c)
		}
	}
}

func (f *coupledFeed) injectDue(now sim.Tick, net noc.Network, pool *noc.MsgPool) error {
	f.popDue(now, func(i int32) {
		e := &f.events[i]
		inject(net, pool, uint64(i+1), e.src, e.dst, e.bytes, e.class)
	})
	return nil
}

// nextInject bounds only the events already ready; the rest become ready
// inside a Tick, and drain asks again after every one.
func (f *coupledFeed) nextInject(sim.Tick) sim.Tick { return f.pending.NextAt() }

func (f *coupledFeed) lastRef() sim.Tick { return f.maxRef }

// dueQueue holds events under the cycle they become due, on a sim.Calendar,
// the engine's one due-time queue, for the feeds whose events become due out
// of ID order: the coupled replay's and an overlapped round's (overlap.go).
type dueQueue struct {
	pending sim.Calendar[int32]
	batch   []int32 // the cycle being released
}

func newDueQueue() dueQueue { return dueQueue{pending: sim.NewCalendar[int32](ringTicks)} }

// popDue calls fn on every event due at or before now, one cycle at a time
// and each cycle's in event-index order.
func (q *dueQueue) popDue(now sim.Tick, fn func(i int32)) {
	for at := q.pending.NextAt(); at <= now; at = q.pending.NextAt() {
		q.batch = q.batch[:0]
		for q.pending.NextAt() == at {
			q.batch = append(q.batch, q.pending.Pop())
		}
		slices.Sort(q.batch)
		for _, i := range q.batch {
			fn(i)
		}
	}
}
