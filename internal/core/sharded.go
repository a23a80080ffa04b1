package core

import (
	"fmt"
	"sort"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// partition is the per-trace half of a K > 1 replay: which replica owns each
// event, and the compact per-event scalars the statistics merge needs —
// O(n) small arrays, like the schedule itself, while event payloads and
// dependency edges stay windowed. ShardNode depends only on endpoints, so
// one pass over the source settles it for every run of the replayer.
type partition struct {
	k, nodes int
	sn       []int // ShardNode(src, dst) per event
	bytes    []int32
	class    []noc.Class
	self     []bool   // node-local message
	want     []int    // owned events per shard
	maxRef   sim.Tick // the capture run's last arrival
}

// owner returns the shard that owns event i.
func (p *partition) owner(i int) int { return p.sn[i] * p.k / p.nodes }

// split builds r.part on first use.
func (r *replayer) split(sh noc.ScheduleShardable, k int) error {
	if r.part != nil {
		return nil
	}
	n := r.meta.NumEvents
	p := &partition{
		k: k, nodes: sh.Nodes(),
		sn: make([]int, n), bytes: make([]int32, n), class: make([]noc.Class, n), self: make([]bool, n),
		want: make([]int, k),
	}
	err := EachEvent(r.src, func(i int, e *trace.Event) {
		p.sn[i] = sh.ShardNode(e.Src, e.Dst)
		p.bytes[i] = int32(e.Bytes)
		p.class[i] = e.Class
		p.self[i] = e.Src == e.Dst
		if e.RefArrive > p.maxRef {
			p.maxRef = e.RefArrive
		}
		p.want[p.owner(i)]++
	})
	if err != nil {
		return err
	}
	r.part = p
	return nil
}

// injectionRank returns each event's position in the serial (injection time,
// ID) order — the serial tie-break for injection-ordered statistics.
func injectionRank(inject []sim.Tick) []int {
	order := make([]int, len(inject))
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
	rank := make([]int, len(order))
	for pos, i := range order {
		rank[i] = pos
	}
	return rank
}

// mergeStats rebuilds the serial run's statistics block from per-shard
// observations by replaying every mutation in the serial order. This matters
// because metrics.Summary is a Welford accumulator — its mean/m2 floats
// depend on Add order, and Summary.Merge is *not* byte-identical to
// sequential Adds — so the only way to match the serial block bit-for-bit is
// to re-run the Adds in the exact serial sequence.
//
// The serial drain loop visits each clock value c in three phases:
//
//	phase 0 — deliveries: messages with Arrive == c pop from the arrival
//	  heap in (at, seq) order. SeqByInjection fabrics assign seq at Inject,
//	  so the tie-break is the global injection rank; SeqByService fabrics
//	  assign seq when a transmission starts (self-messages at Inject), so
//	  the tie-break is the transmit-start key (start cycle, then channel
//	  scan position; self-messages sort as injections of their cycle).
//	phase 1 — transmit starts: the crossbar Tick scans channels in
//	  ascending ShardNode order, recording the queue wait into HopCount
//	  then QueueDelay for each message that wins its channel.
//	phase 2 — injections: events due at c are injected in (time, ID)
//	  order at the top of the loop, after the Tick that moved the clock to
//	  c — Injected++, and the ideal fabric also records its bandwidth
//	  stall into QueueDelay here.
//
// Sorting all mutation records by (cycle, phase, tie-break) therefore
// reproduces the serial mutation sequence exactly.
func (r *replayer) mergeStats(res *ReplayResult, inject []sim.Tick, obs []noc.ShardObs, hasObs []bool, seqOrder noc.SeqOrder) (*noc.Stats, error) {
	p := r.part
	rank := injectionRank(inject)
	type mutOp struct {
		cycle sim.Tick
		phase uint8
		// Tie-break key inside (cycle, phase): for phase-0 deliveries of
		// SeqByService fabrics this is the seq-assignment key (a, b, c) =
		// (start cycle, assignment phase, channel/rank); elsewhere only c
		// is used.
		a   sim.Tick
		b   uint8
		c   int64
		idx int
	}
	n := len(inject)
	ops := make([]mutOp, 0, 3*n)
	for i := 0; i < n; i++ {
		switch seqOrder {
		case noc.SeqByInjection:
			if !hasObs[i] {
				return nil, fmt.Errorf("core: fabric recorded no shard observation for event %d", i+1)
			}
			ops = append(ops, mutOp{cycle: res.Arrive[i], phase: 0, c: int64(rank[i]), idx: i})
		case noc.SeqByService:
			if p.self[i] {
				ops = append(ops, mutOp{cycle: res.Arrive[i], phase: 0, a: inject[i], b: 2, c: int64(rank[i]), idx: i})
			} else {
				if !hasObs[i] {
					return nil, fmt.Errorf("core: fabric recorded no shard observation for event %d", i+1)
				}
				ops = append(ops, mutOp{cycle: res.Arrive[i], phase: 0, a: obs[i].Start, b: 1, c: int64(p.sn[i]), idx: i})
				ops = append(ops, mutOp{cycle: obs[i].Start, phase: 1, c: int64(p.sn[i]), idx: i})
			}
		default:
			return nil, fmt.Errorf("core: unknown fabric seq order %d", seqOrder)
		}
		ops = append(ops, mutOp{cycle: inject[i], phase: 2, c: int64(rank[i]), idx: i})
	}
	sort.Slice(ops, func(x, y int) bool {
		ox, oy := &ops[x], &ops[y]
		if ox.cycle != oy.cycle {
			return ox.cycle < oy.cycle
		}
		if ox.phase != oy.phase {
			return ox.phase < oy.phase
		}
		if ox.a != oy.a {
			return ox.a < oy.a
		}
		if ox.b != oy.b {
			return ox.b < oy.b
		}
		return ox.c < oy.c
	})

	stats := noc.NewStats()
	for _, op := range ops {
		switch op.phase {
		case 0:
			lat := float64(res.Arrive[op.idx] - res.Inject[op.idx])
			stats.Delivered++
			stats.BytesDelivered += uint64(p.bytes[op.idx])
			stats.Latency.Add(lat)
			if class := p.class[op.idx]; class < noc.NumClasses {
				stats.PerClass[class].Add(lat)
			}
			if seqOrder == noc.SeqByInjection {
				// The ideal fabric records one "hop" per delivery.
				stats.HopCount.Add(1)
			}
		case 1:
			stats.HopCount.Add(obs[op.idx].Queue)
			stats.QueueDelay.Add(obs[op.idx].Queue)
		case 2:
			stats.Injected++
			if seqOrder == noc.SeqByInjection {
				stats.QueueDelay.Add(obs[op.idx].Queue)
			}
		}
	}
	return stats, nil
}
