package core

import (
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// This file is the replay engine's checkpoint ladder: instead of replaying
// the whole trace from cycle zero every correction round, round r+1 resumes
// from the deepest round-r checkpoint that is still inside the new
// schedule's frozen prefix.
//
// The frozen-prefix rule: let B = min over all events i with prev[i] ≠
// next[i] of min(prev[i], next[i]) — the earliest cycle at which the two
// schedules diverge (sim.Never when they are identical). Every injection at
// or before any t0 < B is present in both schedules at the same time, and
// schedule-driven replay has no delivery→injection feedback, so the fabric
// evolution through t0 — arbitration, statistics mutation order, everything
// — is byte-identical under both schedules. A checkpoint captured at cycle
// t0 < B is therefore a valid state of the new round's trajectory, and the
// replay may resume from it. The inequality is strict: an event whose
// injection time *is* B may differ between the schedules.
//
// Checkpoints are captured during each round's replay at a ladder of
// injection-count thresholds (octiles of the event count), at the drain
// loop's top-of-iteration point where the state is exactly "every injection
// and delivery ≤ Now() applied". Surviving checkpoints (at < B) are retained
// across rounds: by induction they are states of the current trajectory, so
// the ladder deepens as the schedule's stable prefix grows — exactly the
// effect the paper's fixpoint exhibits, with late contention-heavy suffixes
// churning long after early injections froze.
//
// With K > 1 every replica is an independent drain over its owned events, so
// each keeps its own ladder and its own frozen-prefix boundary (the minimum
// over its *owned* changed events, typically deeper than the global one). A
// fabric without the noc.Checkpointer contract replays every round in full.

// checkpoint pairs a fabric snapshot with its capture cycle. Ladders are
// kept ascending by at.
type checkpoint struct {
	at   sim.Tick
	snap noc.Snapshot
}

// lastRun is what the ladder keeps between runs: copies of the previous
// schedule, which was also its realized injections, and of its arrivals (the
// next run overwrites the replayer's), and one ladder per lane.
type lastRun struct {
	inject  []sim.Tick // nil before the first completed run
	arrive  []sim.Tick
	ladders [][]checkpoint
}

func (p *lastRun) remember(inject, arrive []sim.Tick) {
	p.inject = append(p.inject[:0], inject...)
	p.arrive = append(p.arrive[:0], arrive...)
}

// pruneLadder drops checkpoints invalidated by boundary b (at ≥ b, strict
// validity) and returns the surviving prefix.
func pruneLadder(ladder []checkpoint, b sim.Tick) []checkpoint {
	keep := len(ladder)
	for keep > 0 && ladder[keep-1].at >= b {
		ladder[keep-1] = checkpoint{}
		keep--
	}
	return ladder[:keep]
}

// captureThresholds returns the ascending injected-count thresholds at which
// a round's replay captures checkpoints: the octiles of want (duplicates
// collapsed, counts ≤ from dropped — those states are already behind the
// resume point). The final threshold equals want, so a round whose schedule
// matches the previous one resumes past its last injection and replays only
// the drain tail.
func captureThresholds(want, from int) []int {
	var ts []int
	for k := 1; k <= 8; k++ {
		t := k * want / 8
		if t <= from || t == 0 {
			continue
		}
		if len(ts) > 0 && ts[len(ts)-1] == t {
			continue
		}
		ts = append(ts, t)
	}
	return ts
}

// ladderCapture returns a drain capture hook appending a checkpoint to
// *ladder whenever the injected count crosses the next threshold. Several
// thresholds crossed by one injection burst collapse into one snapshot.
func ladderCapture(net noc.Network, ladder *[]checkpoint, thresholds []int) func(int) {
	ck := net.(noc.Checkpointer)
	ti := 0
	return func(injected int) {
		crossed := false
		for ti < len(thresholds) && injected >= thresholds[ti] {
			ti++
			crossed = true
		}
		if crossed {
			*ladder = append(*ladder, checkpoint{at: net.Now(), snap: ck.Snapshot()})
		}
	}
}

// resume prunes every lane's ladder against the new schedule and restores
// the deepest surviving checkpoint onto the lane's fabric, leaving the lane
// positioned there: floor at the checkpoint cycle, injected and delivered
// counts and arrivals, with their delivered marks, carried over from the
// previous run. Lanes with no surviving checkpoint are left untouched and
// start from cycle zero.
func (r *replayer) resume(lanes []lane, inject []sim.Tick, res *ReplayResult) {
	p := &r.last
	for len(p.ladders) < len(lanes) {
		p.ladders = append(p.ladders, nil)
	}
	owner := func(int) int { return 0 }
	if len(lanes) > 1 {
		owner = r.part.owner
	}
	// Per-lane frozen-prefix boundaries over owned events only: the earliest
	// cycle at which the two schedules diverge (sim.Never when they agree).
	// Before the first completed run nothing is frozen.
	bounds := make([]sim.Tick, len(lanes))
	if p.inject != nil {
		for s := range bounds {
			bounds[s] = sim.Never
		}
		for i, t := range inject {
			if old := p.inject[i]; old != t {
				if s := owner(i); min(old, t) < bounds[s] {
					bounds[s] = min(old, t)
				}
			}
		}
	}
	resumed := false
	for s := range lanes {
		p.ladders[s] = pruneLadder(p.ladders[s], bounds[s])
		if len(p.ladders[s]) == 0 {
			continue
		}
		cp := p.ladders[s][len(p.ladders[s])-1]
		l := &lanes[s]
		l.net = r.fabric(s)
		l.net.(noc.Checkpointer).Restore(cp.snap)
		l.floor = cp.at
		r.saved += cp.at
		resumed = true
	}
	if !resumed {
		return
	}
	// Reconstruct the drain cursors in O(n): injections at or before a
	// checkpoint are identical in both schedules (t0 < B), so the injected
	// set is exactly {i : inject[i] ≤ t0} and the delivered prefix carries
	// over from the previous run's arrivals.
	for i, t := range inject {
		l := &lanes[owner(i)]
		if l.net == nil {
			continue
		}
		t0 := l.floor
		if t <= t0 {
			l.injected++
		}
		if p.arrive[i] <= t0 {
			res.Arrive[i] = p.arrive[i]
			r.done[i] = true
			l.delivered++
		}
	}
}
