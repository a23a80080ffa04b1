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
		if t := f.nextInject(); t < sim.Never {
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

// finalize computes makespan and mean latency from the realized times and
// returns the last arrival; maxRef is the capture run's last arrival. The
// caller installs Cycles and NetStats.
func finalize(res *ReplayResult, refMakespan, maxRef sim.Tick) sim.Tick {
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
	return maxArr
}

// replayer is the replay engine: it replays injection schedules of one
// trace.Source on fabrics from one factory, a call to run per schedule, each
// from cycle zero. It has two pluggable parts around the one drain loop:
//
//   - the feed (stream.go) decodes the source inside a bounded read-ahead
//     window; a resident trace is the unbounded case;
//   - K > 1 on a noc.ScheduleShardable fabric splits the events over K
//     replica fabrics (sharded.go), drains each to completion in its own
//     goroutine and merges their statistics blocks; K = 1 is the serial
//     case, run in the caller's goroutine with the fabric's own block.
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
// (overlap.go) drives one of its slots from a goroutine of its own, never a
// slot a run or another round is using.
type replayer struct {
	factory NetworkFactory
	src     trace.Source
	meta    trace.Meta
	shards  int // requested K, clamped to [1, nodes] per run
	window  int // cap on each drain's pending events; 0 = unbounded

	slots []slot     // what each shard keeps from run to run
	part  *partition // K > 1 only; see sharded.go

	// next is where a run derives the next schedule; nil derives none. The
	// correction sets it, and the deriver's options.
	next []sim.Tick
	// log, when non-nil, is where a K = 1 run publishes its deliveries for
	// an overlapped round that follows it (overlap.go).
	log *deliveryLog
	// Storage every run reuses: the arrival vector, which is the result's
	// Arrive and so is overwritten by the next run, the per-block suffix
	// minima of its schedule, its delivered marks and the deriver.
	arrive []sim.Tick
	bm     []sim.Tick
	done   []bool
	derive deriver
}

// slot is the long-lived state of one shard: its fabric — a Resettable
// instance is reset between runs instead of rebuilt — and the storage its
// drains reuse: the message pool and the decoder's pending queue and bound
// cursor.
type slot struct {
	net     noc.Network
	used    bool
	pool    noc.MsgPool
	pending sim.Calendar[pendingMsg]
	cur     [minBlock]sim.Tick
}

func newReplayer(factory NetworkFactory, src trace.Source, shards, window int) *replayer {
	return &replayer{factory: factory, src: src, meta: src.Meta(), shards: shards, window: readAhead(src, window)}
}

// fabric returns the long-lived instance of shard slot i, as it was left.
// Slot 0 doubles as the zero-load probe: a probe never ticks, so the
// instance is still fresh for the first run. A correction's coupled seed
// runs on it too and marks it used, so the first run resets it.
func (r *replayer) fabric(i int) noc.Network {
	for len(r.slots) <= i {
		r.slots = append(r.slots, slot{pending: sim.NewCalendar[pendingMsg](ringTicks)})
	}
	if r.slots[i].net == nil {
		r.slots[i].net = r.factory()
	}
	return r.slots[i].net
}

// fresh returns slot i at time zero with no prior traffic.
func (r *replayer) fresh(i int) noc.Network {
	net := r.fabric(i)
	if r.slots[i].used {
		if rs, ok := net.(noc.Resettable); ok {
			rs.Reset()
		} else {
			net = r.factory()
			r.slots[i].net = net
		}
	}
	return net
}

// lanes is how many fabrics a run splits over: K, clamped to the node count,
// on a noc.ScheduleShardable fabric, and 1 on any other.
func (r *replayer) lanes() int {
	net0 := r.fabric(0)
	if _, ok := net0.(noc.ScheduleShardable); ok {
		return max(min(r.shards, net0.Nodes()), 1)
	}
	return 1
}

// deriveAll derives into next the schedule a finished run's latencies give
// (ScheduleStream with r.derive.opts), in one more pass over the source.
func (r *replayer) deriveAll(next []sim.Tick, res ReplayResult) error {
	r.derive.reset(next, res.Arrive, res.Inject, nil)
	return EachEvent(r.src, r.derive.offer)
}

// lane is one fabric's share of a run: the drain of the events it owns. It
// holds no reference to the run's feed: the fabric outlives the run and,
// through its delivery callback, so does the lane.
type lane struct {
	net             noc.Network
	slot            *slot    // the storage the drain reuses
	delivered, want int      // want is the lane's owned event count
	maxRef          sim.Tick // the decoder's, once drained
	err             error
}

// drain opens the lane's own pass over src and runs the drain loop on it.
// With a deriver, it then derives from the last deliveries: every event was
// decoded before it was injected, so the deriver has been offered them all.
func (l *lane) drain(src trace.Source, dec streamDecoder) {
	it, err := src.Pass()
	if err != nil {
		l.err = err
		return
	}
	defer it.Close()
	l.slot.pending.Reset()
	dec.it, dec.pending, dec.cur = it, &l.slot.pending, &l.slot.cur
	l.err = drain(l.net, &dec, &l.slot.pool, &l.delivered, l.want)
	if l.err == nil && dec.derive != nil {
		dec.derive.advance()
	}
	l.maxRef = dec.maxRef
}

// run injects every event of the source at the given absolute times and runs
// the fabric(s) until all are delivered. With r.next non-nil it also derives
// into it the schedule the realized latencies give (ScheduleStream with
// r.derive.opts): during the replay itself for K = 1, in one more pass over
// the source for K > 1. The result is valid until the next run: its Inject is
// the inject slice passed in, and its Arrive is r.arrive, which the next run
// overwrites.
func (r *replayer) run(inject []sim.Tick) (ReplayResult, error) {
	n, next := r.meta.NumEvents, r.next
	net0 := r.fabric(0)
	if net0.Nodes() != r.meta.Nodes {
		return ReplayResult{}, fmt.Errorf("core: fabric has %d nodes, trace has %d", net0.Nodes(), r.meta.Nodes)
	}
	if len(inject) != n {
		return ReplayResult{}, fmt.Errorf("core: %d injection times for %d events", len(inject), n)
	}
	k := r.lanes()
	if r.arrive == nil {
		r.arrive = make([]sim.Tick, n)
	}
	res := ReplayResult{Inject: inject, Arrive: r.arrive}
	r.done = slices.Grow(r.done[:0], n)[:n]
	clear(r.done)
	lanes := make([]lane, k)
	lanes[0].want = n
	if k > 1 {
		if err := r.split(net0.(noc.ScheduleShardable), k); err != nil {
			return ReplayResult{}, err
		}
		for s := range lanes {
			lanes[s].want = r.part.want[s]
		}
	}
	r.fabric(k - 1) // every slot exists before a lane points into one
	for s := range lanes {
		l := &lanes[s]
		l.net = r.fresh(s)
		if l.net.Now() != 0 {
			return ReplayResult{}, fmt.Errorf("core: replay fabric is not fresh (now=%d)", l.net.Now())
		}
		l.slot = &r.slots[s]
		l.slot.used = true
		done := r.done
		arrive := r.arrive
		log := r.log
		l.net.SetDeliver(func(m *noc.Message) {
			idx := int(m.ID) - 1
			arrive[idx] = m.Arrive
			done[idx] = true
			if log != nil {
				log.publish(idx)
			}
			l.delivered++
			l.slot.pool.Put(m)
		})
	}

	// Replicas are fully independent, and every shared-slice write lands at
	// indices owned by exactly one lane.
	r.bm = blockMins(r.bm, inject)
	dec := streamDecoder{inject: inject, bm: r.bm, window: r.window}
	if k == 1 {
		if next != nil {
			r.derive.reset(next, res.Arrive, res.Inject, r.done)
			dec.derive = &r.derive
		}
		lanes[0].drain(r.src, dec)
	} else {
		var wg sync.WaitGroup
		for s := range lanes {
			wg.Add(1)
			go func() {
				defer wg.Done()
				dec := dec
				dec.own = func(idx int) bool { return r.part.owner(idx) == s }
				lanes[s].drain(r.src, dec)
			}()
		}
		wg.Wait()
	}
	for s := range lanes {
		if err := lanes[s].err; err != nil {
			if k > 1 {
				return ReplayResult{}, fmt.Errorf("core: shard %d/%d: %w", s, k, err)
			}
			return ReplayResult{}, fmt.Errorf("core: %w", err)
		}
	}
	if next != nil && k > 1 {
		if err := r.deriveAll(next, res); err != nil {
			return ReplayResult{}, err
		}
	}

	// Each event passed through the decoder of the lane that owns it, which
	// folded in the event's capture-run arrival on the way.
	var maxRef sim.Tick
	for s := range lanes {
		maxRef = max(maxRef, lanes[s].maxRef)
	}
	maxArr := finalize(&res, r.meta.RefMakespan, maxRef)
	if k == 1 {
		res.Cycles, res.NetStats = lanes[0].net.Now(), statsOf(lanes[0].net)
	} else {
		// The serial loop exits on the Tick that delivers the last message,
		// so its final clock equals the last arrival.
		res.Cycles, res.NetStats = maxArr, new(noc.Stats)
		for s := range lanes {
			res.NetStats.Merge(lanes[s].net.Stats())
		}
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
// source, in a handful of allocations whatever its length.
func CoupledReplay(net noc.Network, src trace.Source, opts ScheduleOptions) (ReplayResult, error) {
	meta := src.Meta()
	if err := checkFabric(net, meta.Nodes); err != nil {
		return ReplayResult{}, err
	}
	n := meta.NumEvents
	res := ReplayResult{
		Inject: make([]sim.Tick, n),
		Arrive: make([]sim.Tick, n),
	}
	// Dependency bookkeeping: remaining counts each event's kept
	// dependencies not yet arrived.
	var maxRef sim.Tick
	feed := coupledFeed{events: make([]pendingMsg, n), dueQueue: newDueQueue()}
	ix, err := buildRevDeps(src, opts, func(i int, e *trace.Event) {
		feed.events[i] = pendingMsg{at: e.Gap, src: e.Src, dst: e.Dst, bytes: e.Bytes, class: e.Class}
		maxRef = max(maxRef, e.RefArrive)
	})
	if err != nil {
		return ReplayResult{}, err
	}
	remaining, lastDep := ix.deps, make([]sim.Tick, n)
	for i := range feed.events {
		if remaining[i] == 0 {
			feed.pending.Push(feed.events[i].at, int32(i))
		}
	}

	var pool noc.MsgPool
	delivered := 0
	net.SetDeliver(func(m *noc.Message) {
		idx := int(m.ID) - 1
		res.Arrive[idx] = m.Arrive
		res.Inject[idx] = m.Inject
		delivered++
		pool.Put(m)
		for _, ch := range ix.children(idx) {
			if at := m.Arrive + feed.events[ch].at; at > lastDep[ch] {
				lastDep[ch] = at
			}
			remaining[ch]--
			if remaining[ch] == 0 {
				feed.pending.Push(lastDep[ch], ch)
			}
		}
	})
	// A drain that runs out of wake-ups with deliveries outstanding means the
	// dependency graph (or the fabric) has deadlocked.
	if err := drain(net, &feed, &pool, &delivered, n); err != nil {
		return ReplayResult{}, fmt.Errorf("core: coupled %w", err)
	}
	finalize(&res, meta.RefMakespan, maxRef)
	res.Cycles, res.NetStats = net.Now(), statsOf(net)
	return res, nil
}

// coupledFeed is the feed of a coupled replay. The delivery callback pushes
// each event whose dependencies have all arrived on the target fabric onto
// its dueQueue, for the cycle its gap ends; injectDue releases them in the
// (time, ID) order of every feed, which makes a coupled replay the exact
// fixpoint of the correction loop.
type coupledFeed struct {
	events []pendingMsg // every event's payload, its gap in at
	dueQueue
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
func (f *coupledFeed) nextInject() sim.Tick { return f.pending.NextAt() }

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
