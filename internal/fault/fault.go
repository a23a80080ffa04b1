// Package fault schedules deterministic device-level faults for the optical
// fabrics: thermal drift windows that detune a channel's ring bank, and
// lost-arbitration-token events that stall an MWSR home channel until a
// timeout-and-regenerate recovery fires. (The third fault class, laser power
// droop, is a static property and lives in photonics.ComputeBudgetWithDroop.)
//
// Every schedule is a pure function of (seed, fault parameters, channel):
// each channel owns an independent RNG stream (sim.NewStream, labelled by
// class and channel) whose windows are generated lazily but append-only, so
// queries are stateless binary searches. A channel's timeline, stream
// included, is made on the first query for it: New allocates the Injector
// alone, so a fabric that is built but never asked about faults (the
// estimator's zero-load probe, the static power figure) pays nothing per
// channel. That makes the timelines identical under full-cycle ticking,
// idle-cycle skipping, fabric Reset between self-correction rounds, and any
// order of first queries — the property the byte-identical determinism
// contract rests on.
package fault

import (
	"fmt"
	"sort"
	"strconv"

	"onocsim/internal/config"
	"onocsim/internal/sim"
)

// window is one half-open fault interval [Start, End).
type window struct {
	Start, End sim.Tick
}

// timeline holds the windows of one fault class on one channel, made so
// far. Windows are strictly disjoint and separated by at least one cycle, so
// a query instant lies in at most one window and recovery at End can never
// land inside the next window. A timeline with no window has not been
// queried yet, and its stream is unset.
type timeline struct {
	rng  sim.RNG
	wins []window
}

// at returns the window containing t, if any. The timeline must extend past t.
func (tl *timeline) at(t sim.Tick) (window, bool) {
	i := sort.Search(len(tl.wins), func(i int) bool { return tl.wins[i].End > t })
	if i < len(tl.wins) && tl.wins[i].Start <= t {
		return tl.wins[i], true
	}
	return window{}, false
}

// nextStart returns the first window start strictly after t. The timeline
// must extend past t.
func (tl *timeline) nextStart(t sim.Tick) sim.Tick {
	i := sort.Search(len(tl.wins), func(i int) bool { return tl.wins[i].Start > t })
	return tl.wins[i].Start
}

// class is one scheduled fault class: its parameters, and one timeline per
// channel, made on the class's first query.
type class struct {
	label string // stream label prefix; channel ch's stream is label + ch
	mtbf  int64  // ≤ 0 when the class is off
	dur   sim.Tick
	nodes int
	chans []timeline
}

// timeline returns channel ch's timeline extended until its newest window
// starts strictly after t, so at(t) and nextStart(t) can answer from its
// windows alone. The first query for ch seeds its stream.
func (c *class) timeline(base uint64, ch int, t sim.Tick) *timeline {
	if c.chans == nil {
		c.chans = make([]timeline, c.nodes)
	}
	tl := &c.chans[ch]
	if tl.wins == nil {
		var buf [32]byte
		label := strconv.AppendInt(append(buf[:0], c.label...), int64(ch), 10)
		tl.rng = sim.NewStream(base, string(label))
	}
	for len(tl.wins) == 0 || tl.wins[len(tl.wins)-1].Start <= t {
		var prev sim.Tick
		if n := len(tl.wins); n > 0 {
			prev = tl.wins[n-1].End
		}
		// Gap ∈ [1+mtbf/2, 1+3·mtbf/2): mean ≈ mtbf, never zero, so
		// consecutive windows never touch.
		gap := sim.Tick(1 + c.mtbf/2 + int64(tl.rng.Intn(int(c.mtbf))))
		start := prev + gap
		tl.wins = append(tl.wins, window{Start: start, End: start + c.dur})
	}
	return tl
}

// Injector answers fault-schedule queries for one fabric instance. A nil
// Injector is valid and reports no faults, so fabrics can hold one
// unconditionally.
type Injector struct {
	base         uint64
	drift, token class
}

// New builds the injector for a fabric of the given node count. It returns
// nil when neither scheduled fault class is enabled (laser droop needs no
// schedule). The per-channel streams derive from the run seed and the fault
// parameters only — exactly the fields an operation's cache key keeps — so a
// memoized result can never be replayed against a different fault timeline.
func New(nodes int, f config.Faults, seed uint64) *Injector {
	if nodes < 1 || (f.ThermalMTBF <= 0 && f.TokenMTBF <= 0) {
		return nil
	}
	in := &Injector{
		base:  baseSeed(seed, f),
		drift: class{label: "drift/", mtbf: f.ThermalMTBF, dur: sim.Tick(f.ThermalDuration), nodes: nodes},
		token: class{label: "token/", mtbf: f.TokenMTBF, dur: sim.Tick(f.TokenTimeout), nodes: nodes},
	}
	return in
}

// baseSeed folds the run seed and every fault parameter into the root seed
// all per-channel streams derive from. Distinct fault sections therefore get
// fully decorrelated schedules even under the same run seed.
func baseSeed(seed uint64, f config.Faults) uint64 {
	label := fmt.Sprintf("fault/%d/%d/%g/%d/%d/%g",
		f.ThermalMTBF, f.ThermalDuration, f.ThermalDetune,
		f.TokenMTBF, f.TokenTimeout, f.LaserDroopDB)
	r := sim.NewStream(seed, label)
	return r.Uint64()
}

// TokenFaults reports whether lost-token events are scheduled.
func (in *Injector) TokenFaults() bool { return in != nil && in.token.mtbf > 0 }

// ThermalFaults reports whether thermal drift windows are scheduled.
func (in *Injector) ThermalFaults() bool { return in != nil && in.drift.mtbf > 0 }

// DriftAt reports whether channel ch's ring bank is detuned at instant t.
func (in *Injector) DriftAt(ch int, t sim.Tick) bool {
	if !in.ThermalFaults() {
		return false
	}
	_, ok := in.drift.timeline(in.base, ch, t).at(t)
	return ok
}

// TokenOutage reports whether instant t falls inside a lost-token window on
// channel ch, returning the recovery instant (window end, always > t).
func (in *Injector) TokenOutage(ch int, t sim.Tick) (sim.Tick, bool) {
	if !in.TokenFaults() {
		return 0, false
	}
	w, ok := in.token.timeline(in.base, ch, t).at(t)
	return w.End, ok
}

// NextTokenOutage returns the start of the first lost-token window on channel
// ch that begins strictly after t, or sim.Never when the class is disabled.
func (in *Injector) NextTokenOutage(ch int, t sim.Tick) sim.Tick {
	if !in.TokenFaults() {
		return sim.Never
	}
	return in.token.timeline(in.base, ch, t).nextStart(t)
}
