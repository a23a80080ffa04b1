package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"sort"
	"strings"
	"testing"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// The independent oracle for the replay engine: the sorted-order serial
// engine as it stood before the engines were merged — refReplaySchedule,
// refReplayDrain and refFinalizeResult are that code verbatim (identifiers
// prefixed, nothing else changed). It materializes the trace, sorts the whole
// schedule by (time, ID) and indexes it, where the production engine streams
// a source through a suffix-min bound and a heap, partitions it over K
// replicas and resumes from checkpoints; the two share no replay code.

// refCheckEventIDs verifies the dense 1-based ID invariant the replay engines
// rely on to map a delivered message back to its trace event without
// carrying a boxed payload. Traces produced by the recorder always satisfy
// it; hand-built traces are caught here.
func refCheckEventIDs(tr *trace.Trace) error {
	for i := range tr.Events {
		if tr.Events[i].ID != trace.EventID(i+1) {
			return fmt.Errorf("core: trace event %d has id %d, want dense 1-based ids", i, tr.Events[i].ID)
		}
	}
	return nil
}

// refReplaySchedule injects every trace event into net at the given absolute
// times and runs the fabric until all are delivered. The fabric must be
// fresh (at time zero, no prior traffic).
func refReplaySchedule(net noc.Network, tr *trace.Trace, inject []sim.Tick) (ReplayResult, error) {
	if net.Now() != 0 {
		return ReplayResult{}, fmt.Errorf("core: replay fabric is not fresh (now=%d)", net.Now())
	}
	if net.Nodes() != tr.Nodes {
		return ReplayResult{}, fmt.Errorf("core: fabric has %d nodes, trace has %d", net.Nodes(), tr.Nodes)
	}
	if len(inject) != len(tr.Events) {
		return ReplayResult{}, fmt.Errorf("core: %d injection times for %d events", len(inject), len(tr.Events))
	}
	if err := refCheckEventIDs(tr); err != nil {
		return ReplayResult{}, err
	}
	n := len(tr.Events)
	res := ReplayResult{
		Inject: make([]sim.Tick, n),
		Arrive: make([]sim.Tick, n),
	}
	// Injection order: by time, then ID, mirroring capture determinism.
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if inject[ia] != inject[ib] {
			return inject[ia] < inject[ib]
		}
		return ia < ib // explicit ID tiebreak: stable order without the stable-sort cost
	})

	var pool noc.MsgPool
	delivered := 0
	net.SetDeliver(func(m *noc.Message) {
		idx := int(m.ID) - 1
		res.Arrive[idx] = m.Arrive
		res.Inject[idx] = m.Inject
		delivered++
		pool.Put(m)
	})

	if err := refReplayDrain(net, tr, inject, order, 0, &delivered, n, &pool, nil); err != nil {
		return ReplayResult{}, fmt.Errorf("core: %w", err)
	}
	refFinalizeResult(&res, tr, net)
	return res, nil
}

// refReplayDrain is the schedule-driven drain loop shared by refReplaySchedule, the
// incremental correction rounds, and the per-shard incremental replicas. It
// injects the events listed in order (positions [next, len(order))) at their
// absolute schedule times and ticks/skips the fabric until want deliveries
// have been recorded through the fabric's delivery callback, which must
// increment *delivered.
//
// The loop is resumable: callers restoring a checkpoint pass the fabric at
// its restored clock, next set to the count of order positions whose
// injection time lies at or before it, and *delivered prefilled with the
// arrivals that completed by then.
//
// capture, when non-nil, is invoked at the top of every iteration — after
// the injection burst, when the fabric state is exactly "every injection and
// delivery ≤ Now() applied" — with the current injected count; it is the
// hook the incremental loop uses to snapshot checkpoints at a consistent,
// trajectory-independent point.
func refReplayDrain(net noc.Network, tr *trace.Trace, inject []sim.Tick, order []int, next int, delivered *int, want int, pool *noc.MsgPool, capture func(injected int)) error {
	var lastInj sim.Tick
	if len(order) > 0 {
		lastInj = inject[order[len(order)-1]]
	}
	for *delivered < want {
		now := net.Now()
		for next < len(order) && inject[order[next]] <= now {
			i := order[next]
			e := &tr.Events[i]
			m := pool.Get()
			m.ID = uint64(e.ID)
			m.Src = e.Src
			m.Dst = e.Dst
			m.Bytes = e.Bytes
			m.Class = e.Class
			net.Inject(m)
			next++
		}
		if capture != nil {
			capture(next)
		}
		// Fast-forward to the next injection or fabric event; the cycles
		// in between are provably idle.
		wake := net.NextWake()
		if next < len(order) && inject[order[next]] < wake {
			wake = inject[order[next]]
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
		// Guard against fabric bugs swallowing messages.
		if net.Now() > lastInj+sim.Tick(1_000_000_000) {
			return fmt.Errorf("replay did not drain (%d/%d delivered)", *delivered, want)
		}
	}
	return nil
}

// refInjectionOrder returns event indices sorted by (injection time, ID) — the
// serial injection order every replay engine follows.
func refInjectionOrder(inject []sim.Tick) []int {
	order := make([]int, len(inject))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if inject[ia] != inject[ib] {
			return inject[ia] < inject[ib]
		}
		return ia < ib
	})
	return order
}

// refFinalizeResult computes makespan and summary statistics.
func refFinalizeResult(res *ReplayResult, tr *trace.Trace, net noc.Network) {
	var maxArr, maxRef sim.Tick
	var sum float64
	for i := range res.Arrive {
		if res.Arrive[i] > maxArr {
			maxArr = res.Arrive[i]
		}
		if tr.Events[i].RefArrive > maxRef {
			maxRef = tr.Events[i].RefArrive
		}
		sum += float64(res.Arrive[i] - res.Inject[i])
	}
	tail := tr.RefMakespan - maxRef
	if tail < 0 {
		tail = 0
	}
	res.Makespan = maxArr + tail
	if len(res.Arrive) > 0 {
		res.MeanLatency = sum / float64(len(res.Arrive))
	}
	res.Cycles = net.Now()
	res.NetStats = statsOf(net)
}

// plainNet hides every optional contract of a fabric — Resettable,
// Checkpointer, ScheduleShardable — leaving the engine one fresh build per
// run, no ladder and K = 1.
type plainNet struct{ noc.Network }

// referenceTrace is one input of TestEngineAgainstReference.
type referenceTrace struct {
	name string
	tr   *trace.Trace
	// ladders says a second run of an unchanged schedule must find a
	// checkpoint to resume from (false where there is nothing to inject).
	ladders bool
}

// referenceTraces returns a random DAG trace plus the degenerate shapes.
func referenceTraces(nodes int) []referenceTrace {
	event := func(i, src, dst int, at sim.Tick) trace.Event {
		return trace.Event{
			ID: trace.EventID(i + 1), Src: src, Dst: dst,
			Bytes: 16 + (i%5)*24, Class: noc.Class(i % 3), Kind: trace.KindData,
			Gap: at, RefInject: at, RefArrive: at + sim.Tick(20+i%7),
		}
	}
	one := &trace.Trace{Nodes: nodes, Workload: "one", RefMakespan: 500}
	one.Events = append(one.Events, event(0, 2, 9, 17))
	same := &trace.Trace{Nodes: nodes, Workload: "same-cycle", RefMakespan: 5000}
	selfs := &trace.Trace{Nodes: nodes, Workload: "self", RefMakespan: 5000}
	for i := 0; i < 40; i++ {
		same.Events = append(same.Events, event(i, (i*7)%nodes, (i*3+1)%nodes, 5))
		dst := (i * 5) % nodes
		if i%3 != 0 {
			dst = i % nodes // two in three are node-local
		}
		selfs.Events = append(selfs.Events, event(i, i%nodes, dst, sim.Tick(3*(i/4))))
	}
	return []referenceTrace{
		{"random", randomTrace(7, 80, nodes), true},
		{"empty", &trace.Trace{Nodes: nodes, Workload: "empty", RefMakespan: 100}, false},
		{"one", one, true},
		{"same-cycle", same, true},
		{"self", selfs, true},
	}
}

// referenceSchedules returns a sequence of schedules shaped like the rounds
// of a correction: capture order; the zero-load schedule (out of ID order,
// with same-cycle ties); a late suffix moved; the same schedule again; one
// event moved onto another's cycle (the strict edge of the frozen-prefix
// rule); the earliest event moved (empty frozen prefix). Two more hold the
// pending queue to account: "wide" spans several calendar rings, and
// "reverse" needs every event resident at once, which fills a window of
// len(tr.Events) exactly.
func referenceSchedules(tr *trace.Trace, probe noc.Network) [][]sim.Tick {
	n := len(tr.Events)
	capture, lat := make([]sim.Tick, n), make([]sim.Tick, n)
	for i := range tr.Events {
		e := &tr.Events[i]
		capture[i] = e.RefInject
		lat[i] = probe.ZeroLoadLatency(e.Src, e.Dst, e.Bytes)
	}
	zero := Schedule(tr, lat, ScheduleOptions{})
	if n == 0 {
		return [][]sim.Tick{capture, zero}
	}
	sorted := append([]sim.Tick(nil), zero...)
	sort.Slice(sorted, func(a, b int) bool { return sorted[a] < sorted[b] })
	late := append([]sim.Tick(nil), zero...)
	for i := range late {
		if late[i] > sorted[n*3/5] {
			late[i] += sim.Tick(i % 5)
		}
	}
	edge := append([]sim.Tick(nil), late...)
	first, last := 0, 0
	for i := range edge {
		if edge[i] < edge[first] {
			first = i
		}
		if edge[i] >= edge[last] {
			last = i
		}
	}
	edge[last] = sorted[n/2]
	head := append([]sim.Tick(nil), edge...)
	head[first] += 5
	reverse := make([]sim.Tick, n)
	for i := range reverse {
		reverse[i] = sim.Tick(3 * (n - 1 - i))
	}
	return [][]sim.Tick{capture, zero, late, late, edge, head, wideSchedule(tr, zero), reverse}
}

// wideSchedule moves three events of zero far beyond the calendar ring. The
// last event and an earlier one from the same source land on one cycle T:
// the earlier is decoded at once and waits in the overflow heap, the last is
// decoded only when T is due. Between them, the second-to-last event at T -
// 100 is released straight out of the overflow heap and advances the ring
// over T, which must move the earlier event into T's bucket ahead of the
// last one's push.
func wideSchedule(tr *trace.Trace, zero []sim.Tick) []sim.Tick {
	wide := append([]sim.Tick(nil), zero...)
	n := len(wide)
	if n < 3 {
		return wide
	}
	a := 0
	for i := n - 3; i >= 0; i-- {
		if tr.Events[i].Src == tr.Events[n-1].Src {
			a = i
		}
	}
	T := slices.Max(zero) + 3*ringTicks
	wide[a], wide[n-2], wide[n-1] = T, T-100, T
	return wide
}

// TestEngineAgainstReference holds every configuration of the replay engine
// — feed from memory or from a file, K replicas, with and without the
// checkpoint ladder — to the reference engine above: reflect.DeepEqual on
// the whole ReplayResult, per-event vectors and statistics block included,
// for each schedule of a correction-like sequence run through one replayer.
func TestEngineAgainstReference(t *testing.T) {
	const nodes = 16
	presets, shardCounts := []string{"off", "light", "heavy"}, []int{1, 2, 3, 8}
	if testing.Short() {
		presets, shardCounts = []string{"off", "heavy"}, []int{1, 3}
	}
	dir := t.TempDir()
	for _, tc := range referenceTraces(nodes) {
		n := len(tc.tr.Events)
		path := filepath.Join(dir, tc.name+".sctm")
		if err := trace.SaveFile(path, tc.tr); err != nil {
			t.Fatal(err)
		}
		file, err := trace.NewFileSource(path)
		if err != nil {
			t.Fatal(err)
		}
		sources := map[string]trace.Source{"mem": tc.tr, "file": file}
		for _, preset := range presets {
			fabrics := checkpointFabrics(t, nodes, preset)
			fabrics["plain"] = func() noc.Network { return plainNet{noc.NewIdeal(nodes, 15, 16)} }
			for fabric, mk := range fabrics {
				_, checkpoints := mk().(noc.Checkpointer)
				scheds := referenceSchedules(tc.tr, mk())
				want := make([]ReplayResult, len(scheds))
				for i, s := range scheds {
					if want[i], err = refReplaySchedule(mk(), tc.tr, s); err != nil {
						t.Fatalf("%s/%s/%s reference, schedule %d: %v", tc.name, fabric, preset, i, err)
					}
				}
				if n > 1 { // one event short of "reverse", a file's window overflows
					reverse := scheds[len(scheds)-1]
					_, err := newReplayer(mk, file, 1, n-1).run(reverse)
					if want := fmt.Sprintf("needs more than %d resident events", n-1); err == nil || !strings.Contains(err.Error(), want) {
						t.Fatalf("%s/%s/%s: a window of %d for %d events: err = %v, want %q", tc.name, fabric, preset, n-1, n, err, want)
					}
				}
				for srcName, src := range sources {
					for _, k := range shardCounts {
						for _, ladder := range []bool{false, true} {
							label := fmt.Sprintf("%s/%s/%s %s K=%d ladder=%v", tc.name, fabric, preset, srcName, k, ladder)
							// The ladder is set on the replayer so that a file is
							// resumed from checkpoints too, which Correct never asks.
							// A file's window is the trace, which "reverse" fills.
							r := newReplayer(mk, src, k, n)
							r.ladder = ladder
							for i, s := range scheds {
								got, err := r.run(s)
								if err != nil {
									t.Fatalf("%s, schedule %d: %v", label, i, err)
								}
								if !reflect.DeepEqual(want[i], got) {
									t.Fatalf("%s, schedule %d: result differs from the reference\n got %+v\nwant %+v", label, i, got, want[i])
								}
							}
							if saved := r.saved > 0; saved != (ladder && tc.ladders && checkpoints) {
								t.Fatalf("%s: checkpoints restored = %v", label, saved)
							}
							if n >= 3 && !ladder && !slices.ContainsFunc(r.slots, func(s slot) bool { return s.pending.Overflowed() }) {
								t.Fatalf("%s: no shard used the overflow heap", label)
							}
						}
					}
				}
			}
		}
	}
}

// TestEngineEntryPointsAgainstReference runs the exported entry points, which
// build their own replayers, against the same oracle.
func TestEngineEntryPointsAgainstReference(t *testing.T) {
	const nodes = 16
	tr := randomTrace(11, 70, nodes)
	for fabric, mk := range checkpointFabrics(t, nodes, "light") {
		for i, s := range referenceSchedules(tr, mk()) {
			want, err := refReplaySchedule(mk(), tr, s)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := ReplaySchedule(mk(), tr, s)
			if err != nil {
				t.Fatal(err)
			}
			stream, err := ReplayScheduleStream(mk(), tr, s, 0)
			if err != nil {
				t.Fatal(err)
			}
			sharded, err := ReplayScheduleSharded(mk, tr, s, 4)
			if err != nil {
				t.Fatal(err)
			}
			for name, got := range map[string]ReplayResult{"ReplaySchedule": serial, "ReplayScheduleStream": stream, "ReplayScheduleSharded": sharded} {
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s schedule %d: %s differs from the reference", fabric, i, name)
				}
			}
		}
		want, err := refReplaySchedule(mk(), tr, referenceSchedules(tr, mk())[0])
		if err != nil {
			t.Fatal(err)
		}
		sum, err := NaiveReplaySummaryStream(mk(), tr)
		if err != nil {
			t.Fatal(err)
		}
		got := ReplaySummary{Events: len(tr.Events), Makespan: want.Makespan, MeanLatency: want.MeanLatency, Cycles: want.Cycles, NetStats: want.NetStats}
		if !reflect.DeepEqual(sum, got) {
			t.Fatalf("%s: summary replay differs from the reference\n got %+v\nwant %+v", fabric, sum, got)
		}
	}
}
