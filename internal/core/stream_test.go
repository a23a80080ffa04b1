package core

import (
	"context"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/noc"
	"onocsim/internal/onoc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// TestPendingQueueReleasesSortedOrder holds the decoder's pending calendar to
// a stable sort by (at, idx) under the decoder's discipline: IDs ascend from
// push to push, a push lands at or after the cycle being released, and the
// clock never passes a pending event. Spans cluster on a few values up to
// three rings out, so events pass through the overflow heap, move into the
// ring as it advances, and tie on one cycle with later pushes straight into
// the ring.
func TestPendingQueueReleasesSortedOrder(t *testing.T) {
	const events = 3000
	q := sim.NewCalendar[pendingMsg](ringTicks) // reused across seeds, as a slot reuses it across runs
	for seed := uint64(1); seed <= 40; seed++ {
		rng := sim.NewRNG(seed)
		q.Reset()
		var pushed, released []pendingMsg
		now := sim.Tick(rng.Intn(3 * ringTicks))
		for len(pushed) < events || q.Len() > 0 {
			for k := rng.Intn(4); k > 0 && len(pushed) < events; k-- {
				span := sim.Tick(rng.Intn(13)*ringTicks/4 + rng.Intn(3))
				m := pendingMsg{at: now + span, idx: len(pushed)}
				q.Push(m.at, m)
				pushed = append(pushed, m)
			}
			for q.NextAt() <= now {
				m := q.Pop()
				if m.at != now {
					t.Fatalf("seed %d: event %d (due %d) released at %d", seed, m.idx, m.at, now)
				}
				released = append(released, m)
			}
			// The drain's next cycle: at most the earliest pending one,
			// sometimes well short of it; past an empty queue, anywhere.
			next := now + 1 + sim.Tick(rng.Intn(3*ringTicks))
			if rng.Intn(2) == 0 {
				next = now + 1 + sim.Tick(rng.Intn(ringTicks/16))
			}
			now = min(next, max(q.NextAt(), now+1))
		}
		if !q.Overflowed() {
			t.Fatalf("seed %d: the overflow heap was never used", seed)
		}
		want := append([]pendingMsg(nil), pushed...)
		sort.SliceStable(want, func(a, b int) bool { return want[a].at < want[b].at })
		if len(released) != len(want) {
			t.Fatalf("seed %d: released %d of %d events", seed, len(released), len(want))
		}
		for i := range want {
			if released[i].idx != want[i].idx {
				t.Fatalf("seed %d: release %d is event %d (due %d), want event %d (due %d)",
					seed, i, released[i].idx, released[i].at, want[i].idx, want[i].at)
			}
		}
	}
}

// countingSource counts the decode passes opened over a source.
type countingSource struct {
	trace.Source
	passes int
}

func (c *countingSource) Pass() (trace.Iterator, error) {
	c.passes++
	return c.Source.Pass()
}

// TestCorrectionPassCount pins how often a correction reads its source. Seeded
// zero-load, one pass computes the seed and derives the round-0 schedule, then
// every round replays in one pass that also derives the next schedule. Seeded
// coupled, the coupled replay is one more pass, and the loop stops in round 0.
func TestCorrectionPassCount(t *testing.T) {
	for _, seed := range []string{"zeroload", "coupled"} {
		src := &countingSource{Source: randomTrace(5, 300, 16)}
		cfg := config.Default().SCTM
		cfg.MakespanTolerance = 0
		cfg.Seed = seed
		res, _, err := Correct(context.Background(), func() noc.Network { return noc.NewIdeal(16, 15, 16) }, src, cfg, 1, 0, nil, nil, nil, nil)
		if err != nil {
			t.Fatal(err)
		}
		rounds, want := len(res.Iterations), 1+len(res.Iterations)
		if seed == "coupled" {
			want = 3
			if rounds != 1 {
				t.Fatalf("the coupled-seeded correction took %d rounds, want 1", rounds)
			}
		} else if rounds < 2 {
			t.Fatalf("the correction took %d rounds; the count needs a contended one", rounds)
		}
		if src.passes != want {
			t.Fatalf("%s: %d rounds opened %d passes, want %d", seed, rounds, src.passes, want)
		}
	}
}

// TestStreamRefusesRewrittenFile: a replay of a trace file rewritten with
// another header since it was opened is an error, not a replay sized for one
// header fed the other's events.
func TestStreamRefusesRewrittenFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "rewritten.sctm")
	if err := trace.SaveFile(path, randomTrace(3, 200, 8)); err != nil {
		t.Fatal(err)
	}
	file, err := trace.NewFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := trace.SaveFile(path, randomTrace(3, 200, 64)); err != nil {
		t.Fatal(err)
	}
	optical := config.Default().Optical
	_, err = NaiveReplayStream(func() noc.Network { return onoc.NewCrossbar(8, optical, config.Faults{}, 0) }, file, 1, 0)
	if err == nil || !strings.Contains(err.Error(), "changed since it was opened") {
		t.Fatalf("replaying the rewritten file: %v, want the changed header refused", err)
	}
}

// steadyTrace is n events at a steady rate, one every two cycles, with every
// 50th scheduled three rings late: what the fabric holds in flight and what
// the decoder holds pending stop growing after the first few thousand events.
func steadyTrace(n, nodes int) (*trace.Trace, []sim.Tick) {
	tr := &trace.Trace{Nodes: nodes, Workload: "steady", RefMakespan: sim.Tick(2*n + 4*ringTicks)}
	inject := make([]sim.Tick, n)
	for i := range inject {
		at := sim.Tick(2 * i)
		tr.Events = append(tr.Events, trace.Event{
			ID: trace.EventID(i + 1), Src: i % nodes, Dst: (i*5 + 3) % nodes, Bytes: 32,
			Class: noc.ClassRequest, Kind: trace.KindData,
			Gap: at, RefInject: at, RefArrive: at + 20,
		})
		if i%50 == 0 {
			at += 3 * ringTicks
		}
		inject[i] = at
	}
	return tr, inject
}

// TestReplayAllocationsIndependentOfLength: a replayer reused from run to run
// allocates as often for 20 000 events as for 2 000, from memory and from a
// file. The pending queue keeps its storage in the slot and nothing per event
// allocates, so a run's allocations are its fixed set-up.
func TestReplayAllocationsIndependentOfLength(t *testing.T) {
	const nodes = 16
	dir := t.TempDir()
	counts := map[string][]float64{}
	for _, n := range []int{2000, 20000} {
		tr, inject := steadyTrace(n, nodes)
		path := filepath.Join(dir, "steady.sctm")
		if err := trace.SaveFile(path, tr); err != nil {
			t.Fatal(err)
		}
		file, err := trace.NewFileSource(path)
		if err != nil {
			t.Fatal(err)
		}
		for name, src := range map[string]trace.Source{"mem": tr, "file": file} {
			r := newReplayer(func() noc.Network { return noc.NewIdeal(nodes, 15, 16) }, src, 1, 0)
			counts[name] = append(counts[name], testing.AllocsPerRun(3, func() {
				if _, err := r.run(inject); err != nil {
					t.Fatal(err)
				}
			}))
			if !r.slots[0].pending.Overflowed() {
				t.Fatalf("%s, %d events: the overflow heap was never used", name, n)
			}
		}
	}
	for name, c := range counts {
		if c[0] != c[1] {
			t.Errorf("%s: a reused run allocates %v times at 2 000 events, %v at 20 000", name, c[0], c[1])
		}
	}
}

// injectSpy checks, as each message is delivered, the injection cycle the
// fabric itself stamped on it against the schedule the replay was handed:
// it observes m.Inject, not the result's Inject, which is the schedule.
type injectSpy struct {
	noc.Network
	sched *[]sim.Tick
	late  *atomic.Int64 // messages stamped off their scheduled cycle
}

func (s injectSpy) SetDeliver(fn noc.DeliverFunc) {
	s.Network.SetDeliver(func(m *noc.Message) {
		if m.Inject != (*s.sched)[m.ID-1] {
			s.late.Add(1)
		}
		fn(m)
	})
}

// shardSpy is injectSpy over a noc.ScheduleShardable fabric, which it stays.
type shardSpy struct {
	injectSpy
	sh noc.ScheduleShardable
}

func (s shardSpy) ShardNode(src, dst int) int      { return s.sh.ShardNode(src, dst) }
func (s shardSpy) SetShardObs(fn noc.ShardObsFunc) { s.sh.SetShardObs(fn) }
func (s shardSpy) SeqOrder() noc.SeqOrder          { return s.sh.SeqOrder() }

// TestScheduledReplayInjectsOnSchedule holds the rule that lets a replay's
// result share the schedule as its Inject: every fabric stamps every message
// with exactly its scheduled cycle. Three schedules run on every fabric kind,
// from memory and from a file, at K = 1 and 2: capture order, the zero-load
// schedule, and capture order with the last event of the second bound block
// moved back among the first block's, so that the block's minimum is its
// last event and the decoder must reach it from the block before. The file
// replays that one through a window it barely fits.
func TestScheduledReplayInjectsOnSchedule(t *testing.T) {
	const nodes, n = 16, 3 * minBlock
	tr := randomTrace(17, n, nodes)
	path := filepath.Join(t.TempDir(), "spy.sctm")
	if err := trace.SaveFile(path, tr); err != nil {
		t.Fatal(err)
	}
	file, err := trace.NewFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	fabrics := fabricFamilies(t, nodes, "light")
	fabrics["plain"] = func() noc.Network { return plainNet{noc.NewIdeal(nodes, 15, 16)} }
	for fabric, mk := range fabrics {
		capture, lat := make([]sim.Tick, n), make([]sim.Tick, n)
		probe := mk()
		for i := range tr.Events {
			e := &tr.Events[i]
			capture[i] = e.RefInject
			lat[i] = probe.ZeroLoadLatency(e.Src, e.Dst, e.Bytes)
		}
		tail := slices.Clone(capture)
		tail[2*minBlock-1] = capture[minBlock-8]
		scheds := []struct {
			name   string
			s      []sim.Tick
			window int
		}{
			{"capture", capture, 0},
			{"zeroload", Schedule(tr, lat, ScheduleOptions{}), 0},
			{"tail", tail, minBlock + 16},
		}

		var sched []sim.Tick
		var late atomic.Int64
		spied := func() noc.Network {
			spy := injectSpy{Network: mk(), sched: &sched, late: &late}
			if sh, ok := spy.Network.(noc.ScheduleShardable); ok {
				return shardSpy{spy, sh}
			}
			return spy
		}
		for _, sc := range scheds {
			name, s := sc.name, sc.s
			for srcName, src := range map[string]trace.Source{"mem": tr, "file": file} {
				for _, k := range []int{1, 2} {
					sched = s
					res, err := newReplayer(spied, src, k, sc.window).run(s)
					if err != nil {
						t.Fatalf("%s %s %s K=%d: %v", fabric, name, srcName, k, err)
					}
					if got := late.Swap(0); got != 0 {
						t.Fatalf("%s %s %s K=%d: %d of %d messages injected off their scheduled cycle", fabric, name, srcName, k, got, n)
					}
					if &res.Inject[0] != &s[0] {
						t.Fatalf("%s %s %s K=%d: the result's Inject is not the schedule", fabric, name, srcName, k)
					}
				}
			}
		}
	}
}
