package fault

import (
	"fmt"
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/sim"
)

func heavy() config.Faults {
	f, err := config.FaultPreset("heavy")
	if err != nil {
		panic(err)
	}
	return f
}

// TestNilInjectorSafe pins the nil contract: fabrics hold one unconditionally.
func TestNilInjectorSafe(t *testing.T) {
	var in *Injector
	if in.TokenFaults() || in.ThermalFaults() || in.DriftAt(0, 100) {
		t.Error("nil injector reported faults")
	}
	if _, ok := in.TokenOutage(0, 100); ok {
		t.Error("nil injector reported a token outage")
	}
	if in.NextTokenOutage(0, 100) != sim.Never {
		t.Error("nil injector scheduled a token outage")
	}
	if New(16, config.Faults{}, 42) != nil {
		t.Error("fault-free config built an injector")
	}
	if New(16, config.Faults{LaserDroopDB: 3}, 42) != nil {
		t.Error("droop-only config built an injector (droop is static, not scheduled)")
	}
}

// TestDeterministic checks two injectors over the same (nodes, faults, seed)
// answer every query identically regardless of query order — the property
// self-correction rounds, overlapped ones included, rest on.
func TestDeterministic(t *testing.T) {
	const nodes, horizon = 8, 200_000
	a := New(nodes, heavy(), 42)
	b := New(nodes, heavy(), 42)
	// Probe b backwards to prove answers don't depend on query order.
	for ch := 0; ch < nodes; ch++ {
		for i := 0; i < 200; i++ {
			ta := sim.Tick(i * (horizon / 200))
			tb := sim.Tick((199 - i) * (horizon / 200))
			if a.DriftAt(ch, tb) != b.DriftAt(ch, tb) {
				t.Fatalf("drift(%d,%d) disagrees", ch, tb)
			}
			ea, oka := a.TokenOutage(ch, ta)
			eb, okb := b.TokenOutage(ch, ta)
			if ea != eb || oka != okb {
				t.Fatalf("outage(%d,%d): (%d,%v) vs (%d,%v)", ch, ta, ea, oka, eb, okb)
			}
			if a.NextTokenOutage(ch, ta) != b.NextTokenOutage(ch, ta) {
				t.Fatalf("nextOutage(%d,%d) disagrees", ch, ta)
			}
		}
	}
}

// TestSeedsDecorrelate checks distinct seeds and distinct fault sections give
// distinct schedules.
func TestSeedsDecorrelate(t *testing.T) {
	if baseSeed(42, heavy()) == baseSeed(43, heavy()) {
		t.Error("seeds collide")
	}
	light, _ := config.FaultPreset("light")
	if baseSeed(42, heavy()) == baseSeed(42, light) {
		t.Error("fault sections collide")
	}
}

// TestWindowInvariants walks a long stretch of one timeline checking windows
// are strictly disjoint, separated by ≥1 cycle, and exactly TokenTimeout
// long — the invariants the recovery logic in onoc depends on.
func TestWindowInvariants(t *testing.T) {
	f := heavy()
	in := New(2, f, 7)
	tl := in.token.timeline(in.base, 1, 2_000_000)
	if len(tl.wins) < 10 {
		t.Fatalf("only %d windows in 2M cycles", len(tl.wins))
	}
	var prev window
	for i, w := range tl.wins {
		if w.End-w.Start != sim.Tick(f.TokenTimeout) {
			t.Fatalf("window %d length %d, want %d", i, w.End-w.Start, f.TokenTimeout)
		}
		if i > 0 && w.Start <= prev.End {
			t.Fatalf("window %d starts at %d, inside/adjacent to previous end %d", i, w.Start, prev.End)
		}
		prev = w
	}
	// Query membership agrees with the raw windows at every boundary.
	for _, w := range tl.wins[:10] {
		if _, ok := in.TokenOutage(1, w.Start-1); ok {
			t.Fatalf("outage reported just before window start %d", w.Start)
		}
		if end, ok := in.TokenOutage(1, w.Start); !ok || end != w.End {
			t.Fatalf("outage missing at window start %d", w.Start)
		}
		if end, ok := in.TokenOutage(1, w.End-1); !ok || end != w.End {
			t.Fatalf("outage missing at last covered instant %d", w.End-1)
		}
		if _, ok := in.TokenOutage(1, w.End); ok {
			t.Fatalf("outage reported at recovery instant %d", w.End)
		}
		if next := in.NextTokenOutage(1, w.Start); next <= w.Start {
			t.Fatalf("NextTokenOutage(%d) = %d not strictly after", w.Start, next)
		}
	}
}

// TestChannelsIndependent checks per-channel streams differ: a fabric-wide
// synchronized outage would be a far weaker fault model.
func TestChannelsIndependent(t *testing.T) {
	in := New(4, heavy(), 42)
	same := true
	for ch := 1; ch < 4; ch++ {
		if in.NextTokenOutage(ch, 0) != in.NextTokenOutage(0, 0) {
			same = false
		}
	}
	if same {
		t.Error("all channels share one token schedule")
	}
}

// TestTimelinesIndependentOfFirstQuery holds every channel's windows to one
// schedule however its timeline came to be made: channels first queried in
// order, in reverse, or half of them first and then all of them again from
// cycle zero, which is what a fabric Reset between correction rounds does
// to the Injector it keeps. Each channel's windows are also the ones its
// stream, labelled "drift/<ch>" or "token/<ch>", draws.
func TestTimelinesIndependentOfFirstQuery(t *testing.T) {
	const nodes, horizon, step = 16, 300_000, 997
	f := heavy()
	probe := func(in *Injector, ch int, to sim.Tick) {
		for at := sim.Tick(0); at < to; at += step {
			in.DriftAt(ch, at)
			in.TokenOutage(ch, at)
			in.NextTokenOutage(ch, at)
		}
	}
	inOrder, reverse, reset := New(nodes, f, 42), New(nodes, f, 42), New(nodes, f, 42)
	for ch := 0; ch < nodes; ch++ {
		probe(inOrder, ch, horizon)
		probe(reverse, nodes-1-ch, horizon)
		if ch%2 == 1 {
			probe(reset, ch, horizon/2)
		}
	}
	for ch := nodes - 1; ch >= 0; ch-- {
		probe(reset, ch, horizon)
	}
	// want draws channel ch's windows of one class from its labelled
	// stream, up to the first window starting after horizon.
	want := func(label string, ch int, mtbf int64, dur sim.Tick) []window {
		rng := sim.NewStream(inOrder.base, fmt.Sprintf("%s/%d", label, ch))
		var wins []window
		var end sim.Tick
		for len(wins) == 0 || wins[len(wins)-1].Start <= horizon {
			start := end + sim.Tick(1+mtbf/2+int64(rng.Intn(int(mtbf))))
			end = start + dur
			wins = append(wins, window{start, end})
		}
		return wins
	}
	for name, in := range map[string]*Injector{"in order": inOrder, "reverse": reverse, "reset": reset} {
		for ch := 0; ch < nodes; ch++ {
			for _, c := range []struct {
				got  *class
				name string
			}{{&in.drift, "drift"}, {&in.token, "token"}} {
				w := want(c.name, ch, c.got.mtbf, c.got.dur)
				got := c.got.timeline(in.base, ch, horizon).wins
				if fmt.Sprint(got[:len(w)]) != fmt.Sprint(w) {
					t.Fatalf("%s: %s channel %d windows %v, want %v", name, c.name, ch, got[:len(w)], w)
				}
			}
		}
	}
}

// TestNewAllocatesNothingPerChannel holds New to the Injector and its root
// seed's label: a channel's timeline and stream are made on its first
// query, so building a faulted fabric that is never asked about faults
// costs no per-channel allocation.
func TestNewAllocatesNothingPerChannel(t *testing.T) {
	f := heavy()
	small := testing.AllocsPerRun(20, func() { New(4, f, 42) })
	large := testing.AllocsPerRun(20, func() { New(64, f, 42) })
	t.Logf("New allocates %.0f objects at 4 nodes, %.0f at 64", small, large)
	// fmt's printer pool may drop a printer now and then (always possible
	// under the race detector), so the counts may differ by a couple.
	if large > small+2 || large > 16 {
		t.Errorf("New allocates %.0f objects at 64 nodes, %.0f at 4: want the same handful at both", large, small)
	}
}
