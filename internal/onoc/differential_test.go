package onoc

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// diffFaults are the fault sections of the differential matrix: the presets,
// plus two whose token windows are frequent enough to meet jumps in flight on
// every channel (yet leave the token two laps between losses, so every sender
// is reached) — a storm of windows shorter than one slow hop, and blackouts
// long enough that senders queue up while the token regenerates.
func diffFaults(nodes int, hop sim.Tick) map[string]config.Faults {
	light, _ := config.FaultPreset("light")
	heavy, _ := config.FaultPreset("heavy")
	storm, blackout := heavy, heavy
	storm.TokenMTBF, storm.TokenTimeout = 40+4*int64(nodes)*int64(hop), 2
	blackout.TokenMTBF, blackout.TokenTimeout = storm.TokenMTBF, 75
	return map[string]config.Faults{"off": {}, "light": light, "heavy": heavy, "storm": storm, "blackout": blackout}
}

// TestDifferentialAgainstReference drives the event-driven crossbar and the
// hop-by-hop reference (reference_test.go) with the same seeded traffic —
// trickles, bursts into one channel while its token is in flight, silences
// long enough for idle catch-up, and replies injected from inside the
// delivery callback — and compares every delivery in order, the token state
// of every channel after every cycle, and Stats and PowerReport at drain.
// The production fabric runs once ticked every cycle and once under
// NextWake/SkipTo. This is the proof that token jumps, retargeting, the
// outage clamp and wake-ordered stepping change no simulated result.
//
// The "wdm1" rows run one wavelength per channel, where a 200-byte message
// serializes for 320 cycles: past the wake wheel's span (64 cycles at 3
// nodes, 128 at 64), so finished transmissions wait in its overflow set, as
// do tokens regenerating from a blackout (75 cycles) at 3 nodes.
func TestDifferentialAgainstReference(t *testing.T) {
	nodeCounts := []int{2, 3, 16, 63, 64, 65, 130}
	faultNames := []string{"off", "light", "heavy", "storm", "blackout"}
	narrowNodes := []int{3, 64}
	if testing.Short() {
		nodeCounts = []int{3, 64, 65}
		faultNames = []string{"off", "storm", "blackout"}
		narrowNodes = []int{3}
	}
	seed := uint64(500)
	for _, nodes := range nodeCounts {
		for _, hop := range []sim.Tick{1, 2, 3} {
			for _, hold := range []int{1, 4} {
				for _, fname := range faultNames {
					faults := diffFaults(nodes, hop)[fname]
					seed++
					s := seed
					t.Run(fmt.Sprintf("n%d-hop%d-hold%d-%s", nodes, hop, hold, fname), func(t *testing.T) {
						runDifferential(t, nodes, hop, hold, optCfg(), faults, s, false)
						runDifferential(t, nodes, hop, hold, optCfg(), faults, s, true)
					})
				}
			}
		}
	}
	narrow := optCfg()
	narrow.WavelengthsPerChannel = 1
	for _, nodes := range narrowNodes {
		for _, fname := range []string{"off", "blackout"} {
			faults := diffFaults(nodes, 1)[fname]
			seed++
			s := seed
			t.Run(fmt.Sprintf("n%d-hop1-hold4-%s-wdm1", nodes, fname), func(t *testing.T) {
				if !runDifferential(t, nodes, 1, 4, narrow, faults, s, false) {
					t.Error("no channel ever waited in the wake wheel's overflow set")
				}
				runDifferential(t, nodes, 1, 4, narrow, faults, s, true)
			})
		}
	}
}

// flightOffset reports how many hops before its landing the jumping token of
// ch is, given that the hop-by-hop token is next actionable at refReady.
func flightOffset(ch *channel, refReady, hop sim.Tick) (int, bool) {
	ahead := ch.tokenReady - refReady
	if !ch.flying && ahead != 0 {
		return 0, false
	}
	return int(ahead / hop), ahead >= 0 && ahead%hop == 0
}

// runDifferential runs one row, ticked or skipping, and reports whether a
// channel ever waited in the wake wheel's overflow set (seen ticked only).
func runDifferential(t *testing.T, nodes int, hop sim.Tick, hold int, cfg config.Optical, faults config.Faults, seed uint64, skip bool) (far bool) {
	n := newMWSR(nodes, cfg, faults, seed, hop, hold)
	ref := newRefNetwork(nodes, hop, hold, cfg, faults, seed)

	// Every third delivery (up to a budget) injects a reply from inside the
	// callback, a pure function of the delivered message so both fabrics
	// see the same one: aimed at a busy channel, so it lands on tokens in
	// flight as well as on idle ones.
	const replyBit = 1 << 32
	reply := func(m *noc.Message) (noc.Message, bool) {
		if m.ID >= 4*replyBit || m.ID%3 != 0 {
			return noc.Message{}, false
		}
		return noc.Message{
			ID: m.ID + replyBit, Src: m.Dst, Dst: int(m.ID/3) % nodes,
			Bytes: 8 + int(m.ID%90), Class: noc.ClassResponse,
		}, true
	}
	var got, want []*noc.Message
	n.SetDeliver(func(m *noc.Message) {
		got = append(got, m)
		if r, ok := reply(m); ok {
			n.Inject(&r)
		}
	})
	ref.SetDeliver(func(m *noc.Message) {
		want = append(want, m)
		if r, ok := reply(m); ok {
			ref.Inject(&r)
		}
	})

	rebuilt := newWakeWheel(nodes, hop)
	rng := sim.NewRNG(seed)
	// Injection probability per node per cycle, by phase. A hotspot phase
	// sends everything to one destination: sources join the channel one by
	// one while its token is flying or the channel transmitting.
	rates := []float64{0.02, 0.3, 0, 0.004, 0.8, 0}
	const phase, injectCycles, bound = 90, 1080, 3_000_000
	id := uint64(0)
	checked := 0
	for cyc := 0; cyc < injectCycles || n.NextWake() != noc.Never || ref.NextWake() != noc.Never; cyc++ {
		if cyc > bound {
			t.Fatalf("no drain within %d cycles", bound)
		}
		if skip {
			noc.SkipIdle(n, ref.Now())
		}
		if cyc < injectCycles {
			p := cyc / phase
			hotspot := -1
			if p%4 == 1 {
				hotspot = p % nodes
			}
			if p == 7 && cyc%phase == 0 {
				// A long silence: outage windows pass over idle channels
				// and catchUp has thousands of hops to replay.
				for i := 0; i < 20_000; i++ {
					if !skip {
						n.Tick()
					}
					ref.Tick()
				}
				if skip {
					noc.SkipIdle(n, ref.Now())
				}
			}
			for src := 0; src < nodes; src++ {
				if !rng.Bernoulli(rates[p%len(rates)]) {
					continue
				}
				id++
				m := noc.Message{ID: id, Src: src, Dst: rng.Intn(nodes), Bytes: 1 + rng.Intn(200)}
				if hotspot >= 0 {
					m.Dst = hotspot
				}
				m2 := m
				n.Inject(&m)
				ref.Inject(&m2)
			}
		}
		ref.Tick()
		if skip {
			continue
		}
		n.Tick()
		far = far || len(n.wake.far) > 0
		if cyc%61 == 0 {
			checkWheel(t, n, &rebuilt)
		}
		if busy, refBusy := n.NextWake() != noc.Never, ref.NextWake() != noc.Never; busy != refBusy || len(got) != len(want) {
			t.Fatalf("cycle %d: busy %v delivered %d, reference %v %d", n.now, busy, len(got), refBusy, len(want))
		}
		for d := range n.channels {
			ch, rc := &n.channels[d], ref.channels[d]
			back, ok := flightOffset(ch, rc.tokenReady, hop)
			if !ok || ch.queued != rc.queued || ch.holdCount != rc.holdCount ||
				(ch.tokenPos-back%nodes+nodes)%nodes != rc.tokenPos {
				t.Fatalf("cycle %d channel %d: token (pos %d ready %d hold %d flying %v queued %d), reference (pos %d ready %d hold %d queued %d)",
					n.now, d, ch.tokenPos, ch.tokenReady, ch.holdCount, ch.flying, ch.queued,
					rc.tokenPos, rc.tokenReady, rc.holdCount, rc.queued)
			}
			if back > 0 {
				checked++
			}
		}
	}
	if skip {
		noc.SkipIdle(n, ref.Now())
	}
	if n.Now() != ref.Now() {
		t.Fatalf("drained at %d, reference at %d", n.Now(), ref.Now())
	}
	if id == 0 || len(got) != len(want) || n.stats.Delivered != uint64(len(got)) || len(got) <= int(id) {
		t.Fatalf("delivered %d (reference %d) of %d injected plus replies", len(got), len(want), id)
	}
	for i := range got {
		if got[i].ID != want[i].ID || got[i].Inject != want[i].Inject || got[i].Arrive != want[i].Arrive {
			t.Fatalf("delivery %d is message %d (inject %d, arrive %d), reference %d (%d, %d)", i,
				got[i].ID, got[i].Inject, got[i].Arrive, want[i].ID, want[i].Inject, want[i].Arrive)
		}
	}
	if !reflect.DeepEqual(n.stats, ref.stats) {
		t.Fatalf("stats diverge:\n got %+v\nwant %+v", n.stats, ref.stats)
	}
	if g, w := n.PowerReport(n.now), ref.PowerReport(ref.now); !reflect.DeepEqual(g, w) {
		t.Fatalf("power diverges:\n got %+v\nwant %+v", g, w)
	}
	if faults.TokenMTBF > 0 && faults.TokenMTBF < 16_000 && n.stats.Faults.TokenLosses == 0 {
		t.Error("frequent token faults lost no token")
	}
	if !skip && nodes > 2 && checked == 0 {
		t.Error("no jump was ever observed in flight")
	}
	return far
}

// checkWheel holds the wake wheel to the channels it indexes: rebuilt from
// their states into scratch it comes out the same — no stale bit, no channel
// missing or filed twice — and no token in flight waits in the overflow set.
func checkWheel(t *testing.T, n *Network, scratch *wakeWheel) {
	t.Helper()
	scratch.reset()
	for d := range n.channels {
		if ch := &n.channels[d]; ch.queued > 0 {
			scratch.add(ch, n.now)
		}
	}
	got, want := n.wake.far, scratch.far
	for _, ch := range got {
		if ch.flying || !slices.Contains(want, ch) {
			t.Fatalf("cycle %d: channel %d (ready %d, flying %v) in the overflow set", n.now, ch.dst, ch.tokenReady, ch.flying)
		}
	}
	if len(got) != len(want) || n.wake.farAt != scratch.farAt || !slices.Equal(n.wake.bits, scratch.bits) || !slices.Equal(n.wake.occ, scratch.occ) {
		t.Fatalf("cycle %d: the wake wheel differs from one rebuilt from the channels", n.now)
	}
}

// TestSWMRDifferentialAgainstReference checks that visiting only the
// backlogged senders of the broadcast crossbar, in ascending source order,
// is the scan over all senders: same deliveries, statistics and wake times.
func TestSWMRDifferentialAgainstReference(t *testing.T) {
	heavy, _ := config.FaultPreset("heavy")
	for _, nodes := range []int{2, 64, 65, 130} {
		n := newSWMR(nodes, optCfg(), heavy, 9)
		ref := refSWMR{newSWMR(nodes, optCfg(), heavy, 9)}
		var got, want []*noc.Message
		n.SetDeliver(func(m *noc.Message) { got = append(got, m) })
		ref.SetDeliver(func(m *noc.Message) { want = append(want, m) })
		rng := sim.NewRNG(uint64(nodes))
		id := uint64(0)
		for cyc := 0; cyc < 600 || ref.NextWake() != noc.Never; cyc++ {
			if cyc < 600 {
				for src := 0; src < nodes; src++ {
					if rng.Bernoulli([]float64{0.05, 0.5, 0}[cyc/100%3]) {
						id++
						m := noc.Message{ID: id, Src: src, Dst: rng.Intn(nodes), Bytes: 1 + rng.Intn(300)}
						m2 := m
						n.Inject(&m)
						ref.Inject(&m2)
					}
				}
			}
			if n.NextWake() != ref.NextWake() {
				t.Fatalf("nodes %d cycle %d: NextWake %d, reference %d", nodes, cyc, n.NextWake(), ref.NextWake())
			}
			n.Tick()
			ref.Tick()
		}
		if n.NextWake() != noc.Never || len(got) != int(id) || len(got) != len(want) {
			t.Fatalf("nodes %d: delivered %d (reference %d) of %d", nodes, len(got), len(want), id)
		}
		for i := range got {
			if got[i].ID != want[i].ID || got[i].Arrive != want[i].Arrive {
				t.Fatalf("nodes %d: delivery %d is message %d at %d, reference %d at %d", nodes, i,
					got[i].ID, got[i].Arrive, want[i].ID, want[i].Arrive)
			}
		}
		if !reflect.DeepEqual(n.stats, ref.stats) {
			t.Fatalf("nodes %d: stats diverge:\n got %+v\nwant %+v", nodes, n.stats, ref.stats)
		}
	}
}

// TestSteadyStateTickAllocatesNothing is the zero-allocation gate on the hot
// loop: on a crossbar that has run the burst once, injecting and draining it
// again costs no allocation beyond what Reset itself makes (fresh Stats).
func TestSteadyStateTickAllocatesNothing(t *testing.T) {
	n := newMWSR(64, optCfg(), heavyFaults(), 7, TokenHopCycles, MaxTokenHold)
	n.SetDeliver(func(*noc.Message) {})
	rng := sim.NewRNG(31)
	msgs := make([]*noc.Message, 4000)
	for i := range msgs {
		msgs[i] = &noc.Message{ID: uint64(i + 1), Src: rng.Intn(64), Dst: rng.Intn(64), Bytes: 1 + rng.Intn(200)}
	}
	round := func() {
		n.Reset()
		for i, m := range msgs {
			n.Inject(m)
			if i%8 == 0 {
				n.Tick() // tokens are in flight while the burst builds up
			}
		}
		if !drain(n, 1_000_000) {
			t.Fatal("did not drain")
		}
	}
	round()
	reset := testing.AllocsPerRun(5, n.Reset)
	if got := testing.AllocsPerRun(5, round); got != reset {
		t.Errorf("a warmed burst allocates %.0f times per round, Reset alone %.0f", got, reset)
	}
}

// TestRestoreRebuildsDerivedState snapshots a loaded crossbar with tokens in
// flight and restores it onto a dirty instance: the waiting bitsets and the
// wake wheel are not in the snapshot, so Restore must rebuild them from the
// queues (and carry the flight flags) for the two to stay in lockstep while
// more senders join.
func TestRestoreRebuildsDerivedState(t *testing.T) {
	const nodes = 65
	traffic := func(n *Network, seed uint64, cycles int) {
		rng := sim.NewRNG(seed)
		for c := 0; c < cycles; c++ {
			for k := 0; k < 3; k++ {
				n.Inject(&noc.Message{ID: seed<<20 + uint64(c*3+k), Src: rng.Intn(nodes), Dst: rng.Intn(4), Bytes: 1 + rng.Intn(100)})
			}
			n.Tick()
		}
	}
	a := newMWSR(nodes, optCfg(), heavyFaults(), 3, TokenHopCycles, MaxTokenHold)
	b := newMWSR(nodes, optCfg(), heavyFaults(), 3, TokenHopCycles, MaxTokenHold)
	var got, want []noc.Message
	a.SetDeliver(func(m *noc.Message) { want = append(want, *m) })
	b.SetDeliver(func(m *noc.Message) { got = append(got, *m) })
	traffic(a, 1, 40)
	traffic(b, 2, 25) // dirty: other queues, other token positions
	flying := 0
	for d := range a.channels {
		if a.channels[d].flying {
			flying++
		}
	}
	if flying == 0 {
		t.Fatal("no token in flight at the snapshot")
	}
	b.Restore(a.Snapshot())
	got, want = got[:0], want[:0]
	traffic(a, 5, 40)
	traffic(b, 5, 40)
	if !drain(a, 100_000) || !drain(b, 100_000) {
		t.Fatal("did not drain")
	}
	if len(want) == 0 || !reflect.DeepEqual(got, want) {
		t.Fatalf("restored fabric delivered %d messages, original %d, or in another order", len(got), len(want))
	}
	if !reflect.DeepEqual(a.stats, b.stats) {
		t.Fatalf("stats diverge:\n got %+v\nwant %+v", b.stats, a.stats)
	}
}
