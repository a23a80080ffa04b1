// Package fault schedules deterministic device-level faults for the optical
// fabrics: thermal drift windows that detune a channel's ring bank, and
// lost-arbitration-token events that stall an MWSR home channel until a
// timeout-and-regenerate recovery fires. (The third fault class, laser power
// droop, is a static property and lives in photonics.ComputeBudgetWithDroop.)
//
// Every schedule is a pure function of (seed, fault parameters, channel):
// each channel owns independent RNG streams (sim.NewStream) whose windows are
// generated lazily but append-only, so queries are stateless binary searches.
// That makes the timelines identical under full-cycle ticking, idle-cycle
// skipping, and fabric Reset between self-correction rounds — the property
// the byte-identical determinism contract rests on.
package fault

import (
	"fmt"
	"sort"

	"onocsim/internal/config"
	"onocsim/internal/sim"
)

// window is one half-open fault interval [Start, End).
type window struct {
	Start, End sim.Tick
}

// timeline lazily materializes the windows of one fault class on one channel.
// Windows are strictly disjoint and separated by at least one cycle, so a
// query instant lies in at most one window and recovery at End can never land
// inside the next window.
type timeline struct {
	rng  *sim.RNG
	mtbf int64
	dur  sim.Tick
	wins []window
}

// extendPast appends windows until the newest one starts strictly after t,
// guaranteeing both at(t) and nextStart(t) can answer from wins alone.
func (tl *timeline) extendPast(t sim.Tick) {
	for len(tl.wins) == 0 || tl.wins[len(tl.wins)-1].Start <= t {
		var prev sim.Tick
		if n := len(tl.wins); n > 0 {
			prev = tl.wins[n-1].End
		}
		// Gap ∈ [1+mtbf/2, 1+3·mtbf/2): mean ≈ mtbf, never zero, so
		// consecutive windows never touch.
		gap := sim.Tick(1 + tl.mtbf/2 + int64(tl.rng.Intn(int(tl.mtbf))))
		start := prev + gap
		tl.wins = append(tl.wins, window{Start: start, End: start + tl.dur})
	}
}

// at returns the window containing t, if any.
func (tl *timeline) at(t sim.Tick) (window, bool) {
	tl.extendPast(t)
	i := sort.Search(len(tl.wins), func(i int) bool { return tl.wins[i].End > t })
	if i < len(tl.wins) && tl.wins[i].Start <= t {
		return tl.wins[i], true
	}
	return window{}, false
}

// nextStart returns the first window start strictly after t.
func (tl *timeline) nextStart(t sim.Tick) sim.Tick {
	tl.extendPast(t)
	i := sort.Search(len(tl.wins), func(i int) bool { return tl.wins[i].Start > t })
	return tl.wins[i].Start
}

// Injector answers fault-schedule queries for one fabric instance. A nil
// Injector is valid and reports no faults, so fabrics can hold one
// unconditionally.
type Injector struct {
	cfg   config.Faults
	drift []*timeline
	token []*timeline
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
	base := baseSeed(seed, f)
	in := &Injector{cfg: f}
	if f.ThermalMTBF > 0 {
		in.drift = make([]*timeline, nodes)
		for ch := range in.drift {
			in.drift[ch] = &timeline{
				rng:  sim.NewStream(base, fmt.Sprintf("drift/%d", ch)),
				mtbf: f.ThermalMTBF,
				dur:  sim.Tick(f.ThermalDuration),
			}
		}
	}
	if f.TokenMTBF > 0 {
		in.token = make([]*timeline, nodes)
		for ch := range in.token {
			in.token[ch] = &timeline{
				rng:  sim.NewStream(base, fmt.Sprintf("token/%d", ch)),
				mtbf: f.TokenMTBF,
				dur:  sim.Tick(f.TokenTimeout),
			}
		}
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
	return sim.NewStream(seed, label).Uint64()
}

// TokenFaults reports whether lost-token events are scheduled.
func (in *Injector) TokenFaults() bool { return in != nil && in.token != nil }

// ThermalFaults reports whether thermal drift windows are scheduled.
func (in *Injector) ThermalFaults() bool { return in != nil && in.drift != nil }

// DriftAt reports whether channel ch's ring bank is detuned at instant t.
func (in *Injector) DriftAt(ch int, t sim.Tick) bool {
	if !in.ThermalFaults() {
		return false
	}
	_, ok := in.drift[ch].at(t)
	return ok
}

// TokenOutage reports whether instant t falls inside a lost-token window on
// channel ch, returning the recovery instant (window end, always > t).
func (in *Injector) TokenOutage(ch int, t sim.Tick) (sim.Tick, bool) {
	if !in.TokenFaults() {
		return 0, false
	}
	w, ok := in.token[ch].at(t)
	return w.End, ok
}

// NextTokenOutage returns the start of the first lost-token window on channel
// ch that begins strictly after t, or sim.Never when the class is disabled.
func (in *Injector) NextTokenOutage(ch int, t sim.Tick) sim.Tick {
	if !in.TokenFaults() {
		return sim.Never
	}
	return in.token[ch].nextStart(t)
}
