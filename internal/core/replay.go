package core

import (
	"fmt"
	"sync"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// ReplayResult reports one trace replay on a target fabric.
type ReplayResult struct {
	// Inject and Arrive are the realized per-event times (indexed by
	// event ID minus one).
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
	// NetStats is the fabric's own statistics block.
	NetStats *noc.Stats
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
//
// The loop is resumable: a caller restoring a checkpoint passes the fabric
// at its restored clock, a feed that withholds the events injected at or
// before it, their count as injected, and *delivered prefilled with the
// arrivals that completed by then.
//
// capture, when non-nil, is invoked at the top of every iteration — after
// the injection burst, when the fabric state is exactly "every injection and
// delivery ≤ Now() applied" — with the running injected count; it is the
// hook the checkpoint ladder uses to snapshot at a consistent,
// trajectory-independent point.
func drain(net noc.Network, f feed, pool *noc.MsgPool, injected int, delivered *int, want int, capture func(injected int)) error {
	var lastInj sim.Tick
	for *delivered < want {
		now := net.Now()
		k, err := f.injectDue(now, net, pool)
		if err != nil {
			return err
		}
		injected += k
		if capture != nil {
			capture(injected)
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
// trace.Source on fabrics from one factory, a call to run per schedule. It
// has three pluggable parts around the one drain loop:
//
//   - the feed (stream.go) decodes the source inside a bounded read-ahead
//     window; a resident trace is the unbounded case;
//   - K > 1 on a noc.ScheduleShardable fabric splits the events over K
//     replica fabrics (sharded.go), drains each to completion in its own
//     goroutine and merges their statistics blocks; K = 1 is the serial
//     case, run in the caller's goroutine with the fabric's own block;
//   - the checkpoint ladder (incremental.go) lets a run resume from the
//     deepest fabric snapshot of the previous run that the new schedule
//     leaves valid.
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
// records exactly the samples the serial run records for its owned events,
// and a noc.Stats block is integer-exact and independent of sample order, so
// the replicas' blocks merged are the serial block.
//
// Fabrics that do not implement noc.ScheduleShardable (the wormhole mesh,
// whose flits contend for shared links every cycle, and the hybrid fabric
// that embeds it) run serially whatever K says.
//
// A replayer is not safe for concurrent use.
type replayer struct {
	factory NetworkFactory
	src     trace.Source
	meta    trace.Meta
	shards  int  // requested K, clamped to [1, nodes] per run
	window  int  // cap on each drain's pending events; 0 = unbounded
	ladder  bool // keep checkpoint ladders between runs

	slots []slot     // what each shard keeps from run to run
	part  *partition // K > 1 only; see sharded.go
	last  lastRun    // ladder only; see incremental.go

	// replayed counts injections actually performed and saved the fabric
	// cycles checkpoint restores skipped, summed over every run.
	replayed int
	saved    sim.Tick
}

// slot is the long-lived state of one shard: its fabric — a Resettable
// instance is reset between runs instead of rebuilt, and checkpoints restore
// onto it — and the storage its drains reuse: the message pool and the
// decoder's pending queue.
type slot struct {
	net     noc.Network
	used    bool
	pool    noc.MsgPool
	pending sim.Calendar[pendingMsg]
}

func newReplayer(factory NetworkFactory, src trace.Source, shards, window int) *replayer {
	r := &replayer{factory: factory, shards: shards}
	r.read(src, window)
	return r
}

// read points every later pass of the replayer at src. A resumed correction
// points its parked replayer at the resuming caller's source: the content is
// the parked one's, but the file that held it may be gone.
func (r *replayer) read(src trace.Source, window int) {
	r.src, r.meta, r.window = src, src.Meta(), readAhead(src, window)
}

// fabric returns the long-lived instance of shard slot i, as it was left.
// Slot 0 doubles as the zero-load probe: a probe never ticks, so the
// instance is still fresh for the first run.
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

// lane is one fabric's share of a run: the drain of the events it owns. It
// holds no reference to the run's feed: the fabric outlives the run and,
// through its delivery callback, so does the lane.
type lane struct {
	net  noc.Network
	slot *slot // the storage the drain reuses
	// floor, injected and delivered describe what a restored checkpoint
	// already holds (noFloor, 0, 0 from cycle zero); want is the lane's
	// owned event count.
	floor                     sim.Tick
	injected, delivered, want int
	capture                   func(injected int)
	maxRef                    sim.Tick // the decoder's, once drained
	err                       error
}

// drain opens the lane's own pass over src and runs the drain loop on it.
func (l *lane) drain(src trace.Source, dec streamDecoder) {
	it, err := src.Pass()
	if err != nil {
		l.err = err
		return
	}
	defer it.Close()
	l.slot.pending.Reset()
	dec.it, dec.floor, dec.pending = it, l.floor, &l.slot.pending
	l.err = drain(l.net, &dec, &l.slot.pool, l.injected, &l.delivered, l.want, l.capture)
	l.maxRef = dec.maxRef
}

// run injects every event of the source at the given absolute times and runs
// the fabric(s) until all are delivered.
func (r *replayer) run(inject []sim.Tick) (ReplayResult, error) {
	res, err := r.replay(inject)
	if err != nil {
		r.last = lastRun{} // a failed run leaves nothing to resume from
	}
	return res, err
}

func (r *replayer) replay(inject []sim.Tick) (ReplayResult, error) {
	n := r.meta.NumEvents
	net0 := r.fabric(0)
	if net0.Nodes() != r.meta.Nodes {
		return ReplayResult{}, fmt.Errorf("core: fabric has %d nodes, trace has %d", net0.Nodes(), r.meta.Nodes)
	}
	if len(inject) != n {
		return ReplayResult{}, fmt.Errorf("core: %d injection times for %d events", len(inject), n)
	}
	k := 1
	if _, ok := net0.(noc.ScheduleShardable); ok {
		k = max(min(r.shards, net0.Nodes()), 1)
	}
	res := ReplayResult{Inject: make([]sim.Tick, n), Arrive: make([]sim.Tick, n)}
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
	_, keep := net0.(noc.Checkpointer)
	if keep = keep && r.ladder; keep {
		r.resume(lanes, inject, &res)
	}

	for s := range lanes {
		l := &lanes[s]
		if l.net == nil { // not resumed from a checkpoint
			l.net = r.fresh(s)
			if l.net.Now() != 0 {
				return ReplayResult{}, fmt.Errorf("core: replay fabric is not fresh (now=%d)", l.net.Now())
			}
			l.floor = noFloor
		}
		l.slot = &r.slots[s]
		l.slot.used = true
		r.replayed += l.want - l.injected
		l.net.SetDeliver(func(m *noc.Message) {
			idx := int(m.ID) - 1
			res.Arrive[idx] = m.Arrive
			res.Inject[idx] = m.Inject
			l.delivered++
			l.slot.pool.Put(m)
		})
		if keep {
			l.capture = ladderCapture(l.net, &r.last.ladders[s], captureThresholds(l.want, l.injected))
		}
	}

	// Replicas are fully independent, and every shared-slice write (res, a
	// ladder) lands at indices owned by exactly one lane.
	dec := streamDecoder{inject: inject, sm: suffixMinInject(inject), window: r.window}
	if k == 1 {
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

	// Each event passed through the decoder of the lane that owns it, which
	// folded in the event's capture-run arrival on the way.
	var maxRef sim.Tick
	for s := range lanes {
		maxRef = max(maxRef, lanes[s].maxRef)
	}
	maxArr := finalize(&res, r.meta.RefMakespan, maxRef)
	if k == 1 {
		res.Cycles, res.NetStats = lanes[0].net.Now(), lanes[0].net.Stats()
	} else {
		// The serial loop exits on the Tick that delivers the last message,
		// so its final clock equals the last arrival.
		res.Cycles, res.NetStats = maxArr, noc.NewStats()
		for s := range lanes {
			res.NetStats.Merge(lanes[s].net.Stats())
		}
	}
	if keep {
		r.last.remember(inject, &res)
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
// collects the recorded injection times, a second replays them. Window
// semantics match ReplayScheduleStream.
func NaiveReplayStream(factory NetworkFactory, src trace.Source, shards, window int) (ReplayResult, error) {
	inject := make([]sim.Tick, src.Meta().NumEvents)
	if err := EachEvent(src, func(i int, e *trace.Event) { inject[i] = e.RefInject }); err != nil {
		return ReplayResult{}, err
	}
	return newReplayer(factory, src, shards, window).run(inject)
}

// CoupledReplay resolves dependencies *inside* the network simulation: an
// event is injected its gap after its last dependency physically arrives on
// the target fabric. One replay, no estimates — the expensive upper-accuracy
// reference the self-correction loop approaches. One pass over src builds the
// reverse-dependency lists and keeps every event's payload, so a coupled
// replay holds O(events + edges) resident whatever the source.
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
	// Dependency bookkeeping.
	remaining := make([]int, n)
	lastDep := make([]sim.Tick, n)
	children := make([][]int, n)
	var maxRef sim.Tick
	feed := coupledFeed{events: make([]pendingMsg, n)}
	err := EachEvent(src, func(i int, e *trace.Event) {
		feed.events[i] = pendingMsg{at: e.Gap, idx: i, src: e.Src, dst: e.Dst, bytes: e.Bytes, class: e.Class}
		maxRef = max(maxRef, e.RefArrive)
		for _, d := range e.Deps {
			if !opts.keepDep(d.Class) {
				continue
			}
			di := int(d.On) - 1
			children[di] = append(children[di], i)
			remaining[i]++
		}
	})
	if err != nil {
		return ReplayResult{}, err
	}
	for i := range feed.events {
		if remaining[i] == 0 {
			feed.push(i, feed.events[i].at)
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
		for _, ch := range children[idx] {
			if at := m.Arrive + feed.events[ch].at; at > lastDep[ch] {
				lastDep[ch] = at
			}
			remaining[ch]--
			if remaining[ch] == 0 {
				feed.push(ch, lastDep[ch])
			}
		}
	})
	// A drain that runs out of wake-ups with deliveries outstanding means the
	// dependency graph (or the fabric) has deadlocked.
	if err := drain(net, &feed, &pool, 0, &delivered, n, nil); err != nil {
		return ReplayResult{}, fmt.Errorf("core: coupled %w", err)
	}
	finalize(&res, meta.RefMakespan, maxRef)
	res.Cycles, res.NetStats = net.Now(), net.Stats()
	return res, nil
}

// coupledFeed is the feed of a coupled replay: the events whose dependencies
// have all arrived on the target fabric, each with the cycle its gap ends.
// The delivery callback pushes; the list stays short because injected entries
// are removed, so a linear scan serves both methods. Swap-removal inside that
// scan is what fixes the injection order of events due the same cycle.
type coupledFeed struct {
	events []pendingMsg // every event's payload, its gap in at
	ready  []pendingMsg
}

func (f *coupledFeed) push(idx int, at sim.Tick) {
	m := f.events[idx]
	m.at = at
	f.ready = append(f.ready, m)
}

func (f *coupledFeed) injectDue(now sim.Tick, net noc.Network, pool *noc.MsgPool) (int, error) {
	k := 0
	for i := 0; i < len(f.ready); {
		if e := &f.ready[i]; e.at <= now {
			inject(net, pool, uint64(e.idx+1), e.src, e.dst, e.bytes, e.class)
			f.ready[i] = f.ready[len(f.ready)-1]
			f.ready = f.ready[:len(f.ready)-1]
			k++
		} else {
			i++
		}
	}
	return k, nil
}

// nextInject bounds only the events already ready; the rest become ready
// inside a Tick, and drain asks again after every one.
func (f *coupledFeed) nextInject() sim.Tick {
	next := sim.Never
	for i := range f.ready {
		next = min(next, f.ready[i].at)
	}
	return next
}
