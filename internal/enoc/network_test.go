package enoc

import (
	"slices"
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

func meshCfg() config.Mesh { return config.Default().Mesh }

// drain ticks until idle or the bound, returning whether the fabric drained.
func drain(n *Network, bound int) bool {
	for i := 0; i < bound && n.NextWake() != noc.Never; i++ {
		n.Tick()
	}
	return n.NextWake() == noc.Never
}

func TestSingleMessageLatency(t *testing.T) {
	cfg := meshCfg()
	n := New(16, cfg)
	var got *noc.Message
	n.SetDeliver(func(m *noc.Message) { got = m })
	n.Inject(&noc.Message{ID: 1, Src: 0, Dst: 5, Bytes: 64, Class: noc.ClassRequest})
	if !drain(n, 500) {
		t.Fatal("did not drain")
	}
	if got == nil {
		t.Fatal("no delivery")
	}
	// 0→5 on a 4×4 mesh: dx=1, dy=1 → 2 hops. Uncontended latency should
	// be within a couple of cycles of the zero-load estimate.
	zll := n.ZeroLoadLatency(0, 5, 64)
	lat := got.Latency()
	if lat < zll-2 || lat > zll+4 {
		t.Fatalf("latency %d far from zero-load estimate %d", lat, zll)
	}
}

func TestHeavyLoadDrains(t *testing.T) {
	cfg := meshCfg()
	n := New(16, cfg)
	n.SetDeliver(func(m *noc.Message) {})
	rng := sim.NewRNG(3)
	id := uint64(0)
	// Saturating burst: 50 packets per node at once.
	for k := 0; k < 50; k++ {
		for src := 0; src < 16; src++ {
			id++
			n.Inject(&noc.Message{ID: id, Src: src, Dst: rng.Intn(16), Bytes: 64, Class: noc.Class(rng.Intn(3))})
		}
	}
	if !drainChecked(t, n, 200_000) {
		t.Fatal("saturating burst did not drain — likely deadlock")
	}
	if n.Stats().Delivered != 800 {
		t.Fatalf("delivered %d of 800", n.Stats().Delivered)
	}
}

func TestCreditsRestoredAfterDrain(t *testing.T) {
	cfg := meshCfg()
	n := New(16, cfg)
	n.SetDeliver(func(m *noc.Message) {})
	rng := sim.NewRNG(5)
	for k := 0; k < 20; k++ {
		for src := 0; src < 16; src++ {
			n.Inject(&noc.Message{ID: uint64(k*16 + src + 1), Src: src, Dst: rng.Intn(16), Bytes: 48, Class: noc.ClassRequest})
		}
	}
	if !drain(n, 100_000) {
		t.Fatal("did not drain")
	}
	for _, r := range n.routers {
		for p := 0; p < numPorts; p++ {
			if r.outLink[p] == nil {
				continue
			}
			for v := 0; v < cfg.VCs; v++ {
				if r.outCredit[p][v] != BufDepth {
					t.Fatalf("router %d port %d vc %d: credit %d, want %d (credit leak)",
						r.id, p, v, r.outCredit[p][v], BufDepth)
				}
				if r.outBusy[p][v] {
					t.Fatalf("router %d port %d vc %d: still busy after drain (VC leak)", r.id, p, v)
				}
			}
		}
		for p := 0; p < numPorts; p++ {
			for v := 0; v < cfg.VCs; v++ {
				if r.in[p][v].n != 0 || r.in[p][v].owner != nil {
					t.Fatalf("router %d input %d/%d not empty after drain", r.id, p, v)
				}
			}
		}
	}
}

func TestZeroLoadLatencyShape(t *testing.T) {
	n := New(64, meshCfg())
	// Monotone in distance.
	if n.ZeroLoadLatency(0, 1, 64) >= n.ZeroLoadLatency(0, 63, 64) {
		t.Fatal("ZLL not increasing with distance")
	}
	// Monotone in size.
	if n.ZeroLoadLatency(0, 9, 16) >= n.ZeroLoadLatency(0, 9, 1024) {
		t.Fatal("ZLL not increasing with size")
	}
	if n.ZeroLoadLatency(5, 5, 64) != 1 {
		t.Fatal("self ZLL should be 1")
	}
}

func TestVCClassPartitioning(t *testing.T) {
	n := New(4, meshCfg())
	r := n.routers[0]
	lo0, hi0 := r.vcRange(noc.ClassRequest)
	lo1, hi1 := r.vcRange(noc.ClassResponse)
	lo2, hi2 := r.vcRange(noc.ClassWriteback)
	if hi0 <= lo0 || hi1 <= lo1 || hi2 <= lo2 {
		t.Fatal("empty VC range for a class")
	}
	// Ranges must not overlap when VCs ≥ classes.
	if hi0 > lo1 || hi1 > lo2 {
		t.Fatalf("overlapping class ranges: [%d,%d) [%d,%d) [%d,%d)", lo0, hi0, lo1, hi1, lo2, hi2)
	}
	if hi2 != 4 {
		t.Fatalf("last class should end at VCs=4, got %d", hi2)
	}

	// With a single VC, all classes share it.
	cfg := meshCfg()
	cfg.VCs = 1
	n1 := New(4, cfg)
	lo, hi := n1.routers[0].vcRange(noc.ClassWriteback)
	if lo != 0 || hi != 1 {
		t.Fatalf("single-VC sharing broken: [%d,%d)", lo, hi)
	}
}

func TestNonSquareNodesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-square node count accepted")
		}
	}()
	New(10, meshCfg())
}

func TestPowerCountersAccumulate(t *testing.T) {
	n := New(16, meshCfg())
	n.SetDeliver(func(m *noc.Message) {})
	n.Inject(&noc.Message{ID: 1, Src: 0, Dst: 15, Bytes: 128, Class: noc.ClassRequest})
	drain(n, 1000)
	rep := n.PowerReport(n.Now())
	if rep.StaticMW <= 0 {
		t.Fatal("no static power")
	}
	if rep.DynamicMW <= 0 {
		t.Fatal("no dynamic power despite traffic")
	}
	if len(rep.Breakdown) == 0 {
		t.Fatal("no breakdown")
	}
	// More traffic, more dynamic energy per time.
	n2 := New(16, meshCfg())
	n2.SetDeliver(func(m *noc.Message) {})
	for i := 0; i < 50; i++ {
		n2.Inject(&noc.Message{ID: uint64(i + 1), Src: i % 16, Dst: (i + 3) % 16, Bytes: 128, Class: noc.ClassRequest})
	}
	drain(n2, 5000)
	if n2.power.linkTraversals <= n.power.linkTraversals {
		t.Fatal("more packets should traverse more links")
	}
}

// latencyLog holds the latency of every delivery, in delivery order.
type latencyLog []sim.Tick

// mean returns the mean latency of the log.
func (l latencyLog) mean() float64 {
	var sum sim.Tick
	for _, x := range l {
		sum += x
	}
	return float64(sum) / float64(len(l))
}

// latencies points n's deliveries at the returned log of their latencies.
func latencies(n *Network) *latencyLog {
	l := new(latencyLog)
	n.SetDeliver(func(m *noc.Message) { *l = append(*l, m.Latency()) })
	return l
}

// idleLatency delivers one single-flit src→dst message through the idle n
// and returns its latency.
func idleLatency(t *testing.T, n *Network, src, dst int) sim.Tick {
	t.Helper()
	lat := latencies(n)
	n.Inject(&noc.Message{ID: 1, Src: src, Dst: dst, Bytes: FlitBytes, Class: noc.ClassRequest})
	if !drain(n, 1000) || len(*lat) != 1 {
		t.Fatalf("%d→%d: %d deliveries", src, dst, len(*lat))
	}
	return (*lat)[0]
}

// hopLatency is the idle latency of a single-flit message over a route of
// the given length: RouterStages at each of its hops+1 routers, LinkCycles
// on each link and one cycle of serialization. A route two hops longer
// costs 2×(RouterStages+LinkCycles) more.
func hopLatency(hops int) sim.Tick {
	return sim.Tick(hops+1)*RouterStages + sim.Tick(hops)*LinkCycles + 1
}

func TestIdleLatencyMatchesManhattan(t *testing.T) {
	// 0→15 on 4×4: dx=3, dy=3 → 6 hops under minimal routing.
	if got := idleLatency(t, New(16, meshCfg()), 0, 15); got != hopLatency(6) {
		t.Fatalf("latency %d, want %d for 6 hops", got, hopLatency(6))
	}
}

func TestWestFirstAdaptiveStillMinimal(t *testing.T) {
	cfg := meshCfg()
	cfg.Routing = "westfirst"
	// 3=(3,0) → 12=(0,3): dx=-3, dy=3 → 6 minimal hops.
	if got := idleLatency(t, New(16, cfg), 3, 12); got != hopLatency(6) {
		t.Fatalf("westfirst latency %d, want %d for 6 hops (non-minimal route)", got, hopLatency(6))
	}
}

func TestFlitsFor(t *testing.T) {
	cases := []struct{ bytes, want int }{
		{0, 1}, {1, 1}, {16, 1}, {17, 2}, {64, 4}, {65, 5},
	}
	for _, c := range cases {
		if got := FlitsFor(c.bytes); got != c.want {
			t.Errorf("FlitsFor(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

// torusCfg returns a valid torus configuration (xy routing, 6 VCs).
func torusCfg() config.Mesh {
	cfg := meshCfg()
	cfg.Topology = "torus"
	cfg.VCs = 6
	return cfg
}

func TestTorusWraparoundShortensPaths(t *testing.T) {
	n := New(16, torusCfg())
	// 0→15 on a 4×4 torus: (-1,-1) via wraparound = 2 hops, not 6.
	if got := idleLatency(t, n, 0, 15); got != hopLatency(2) {
		t.Fatalf("torus latency %d, want %d for 2 hops", got, hopLatency(2))
	}
	if zll := n.ZeroLoadLatency(0, 15, 16); zll >= New(16, meshCfg()).ZeroLoadLatency(0, 15, 16) {
		t.Fatalf("torus ZLL %d not shorter than mesh", zll)
	}
}

func TestTorusHeavyLoadNoDeadlock(t *testing.T) {
	// The deadlock test that matters: rings full of wrapping traffic. All
	// nodes flood their ring-opposite node in both dimensions.
	n := New(64, torusCfg())
	n.SetDeliver(func(m *noc.Message) {})
	rng := sim.NewRNG(17)
	id := uint64(0)
	for k := 0; k < 40; k++ {
		for s := 0; s < 64; s++ {
			id++
			var dst int
			if rng.Bernoulli(0.5) {
				// Ring-opposite (max wrap pressure).
				x, y := s%8, s/8
				dst = (x+4)%8 + ((y+4)%8)*8
			} else {
				dst = rng.Intn(64)
			}
			n.Inject(&noc.Message{ID: id, Src: s, Dst: dst, Bytes: 64, Class: noc.Class(rng.Intn(3))})
		}
	}
	if !drainChecked(t, n, 500_000) {
		t.Fatal("torus wedged under wrap-heavy load — dateline scheme broken")
	}
	if n.Stats().Delivered != 64*40 {
		t.Fatalf("delivered %d of %d", n.Stats().Delivered, 64*40)
	}
}

func TestTorusCoherentWorkload(t *testing.T) {
	// End-to-end: the full MSI system on a torus must complete.
	// (Exercised through the public API in the root package tests; here we
	// only check the fabric-level mean latency is below the mesh's.)
	mesh := New(64, meshCfg())
	torus := New(64, torusCfg())
	meshLat, torusLat := latencies(mesh), latencies(torus)
	rng := sim.NewRNG(29)
	id := uint64(0)
	for k := 0; k < 300; k++ {
		id++
		s, d := rng.Intn(64), rng.Intn(64)
		mesh.Inject(&noc.Message{ID: id, Src: s, Dst: d, Bytes: 32, Class: noc.ClassRequest})
		torus.Inject(&noc.Message{ID: id, Src: s, Dst: d, Bytes: 32, Class: noc.ClassRequest})
	}
	drain(mesh, 200_000)
	drain(torus, 200_000)
	if len(*torusLat) != 300 || len(*meshLat) != 300 || torusLat.mean() >= meshLat.mean() {
		t.Fatalf("torus mean latency %.2f over %d deliveries not below mesh %.2f over %d",
			torusLat.mean(), len(*torusLat), meshLat.mean(), len(*meshLat))
	}
}

func TestFlitConservationAfterDrain(t *testing.T) {
	// Conservation invariant: every flit written into a buffer is read out
	// exactly once, and every crossbar traversal puts a flit on a link.
	n := New(16, meshCfg())
	n.SetDeliver(func(m *noc.Message) {})
	rng := sim.NewRNG(41)
	for k := 0; k < 30; k++ {
		for s := 0; s < 16; s++ {
			n.Inject(&noc.Message{ID: uint64(k*16 + s + 1), Src: s, Dst: rng.Intn(16), Bytes: 8 + rng.Intn(120), Class: noc.Class(rng.Intn(3))})
		}
	}
	if !drain(n, 200_000) {
		t.Fatal("did not drain")
	}
	if n.power.bufferWrites != n.power.bufferReads {
		t.Fatalf("flit leak: %d writes vs %d reads", n.power.bufferWrites, n.power.bufferReads)
	}
	if n.power.xbarTraversals != n.power.linkTraversals {
		t.Fatalf("crossbar/link mismatch: %d vs %d", n.power.xbarTraversals, n.power.linkTraversals)
	}
	// No VC bids or waits for its head after the drain.
	for _, r := range n.routers {
		if r.req != [numPorts + 1]reqSet{} {
			t.Fatalf("router %d request rows %x after drain", r.id, r.req)
		}
	}
	if n.wake.Len() != 0 {
		t.Fatalf("%d VCs wait on the wake ring after drain", n.wake.Len())
	}
}

// TestCallbackInjectSavesOneCycle pins where the mesh beats its zero-load
// figure by a cycle. A delivery callback runs inside Tick, before the NI
// phase of that same Tick, so a message it injects enters its local buffer
// in its own inject cycle; injected between ticks, it enters at the next
// Tick — the cycle of injection overhead ZeroLoadLatency charges.
func TestCallbackInjectSavesOneCycle(t *testing.T) {
	westFirst := meshCfg()
	westFirst.Routing = "westfirst"
	for _, c := range []struct {
		name     string
		cfg      config.Mesh
		src, dst int
		want     sim.Tick // between ticks; from the callback it is one less
	}{
		{"mesh-xy", meshCfg(), 12, 3, 21},
		{"mesh-westfirst", westFirst, 12, 3, 21},
		{"torus", torusCfg(), 14, 1, 9},
	} {
		t.Run(c.name, func(t *testing.T) {
			latency := func(fromCallback bool) sim.Tick {
				n := New(16, c.cfg)
				first := &noc.Message{ID: 1, Src: 0, Dst: 1, Bytes: 8}
				probe := &noc.Message{ID: 2, Src: c.src, Dst: c.dst, Bytes: 8}
				n.SetDeliver(func(m *noc.Message) {
					if m == first && fromCallback {
						n.Inject(probe)
					}
				})
				n.Inject(first)
				for n.Now() < 6 {
					n.Tick()
				}
				if !fromCallback {
					n.Inject(probe)
				}
				if !drain(n, 1000) || first.Arrive != 6 || probe.Inject != 6 {
					t.Fatalf("message 1 arrived at %d, the probe was injected at %d; want both at 6", first.Arrive, probe.Inject)
				}
				if zll := n.ZeroLoadLatency(c.src, c.dst, 8); zll != c.want {
					t.Fatalf("ZeroLoadLatency %d, want %d", zll, c.want)
				}
				return probe.Latency()
			}
			if got := latency(false); got != c.want {
				t.Errorf("injected between ticks: latency %d, want %d", got, c.want)
			}
			if got := latency(true); got != c.want-1 {
				t.Errorf("injected from a delivery callback: latency %d, want %d", got, c.want-1)
			}
		})
	}
}

// TestWakeRingOrder holds the wake ring to a sorted (cycle, push order)
// reference: seeded due times over every cycle the ring accepts, across many
// wraps of it, come out of Take cycle by cycle in that order. A due time the
// ring cannot file — the past, now, the next cycle or a full span ahead —
// panics.
func TestWakeRingOrder(t *testing.T) {
	type entry struct {
		at  sim.Tick
		seq int32
	}
	for _, horizon := range []sim.Tick{LinkCycles + RouterStages, 2 + RouterStages, 13} {
		w := newWakeRing(horizon)
		span := w.mask + 1
		if span&w.mask != 0 || span <= horizon || span > 2*horizon {
			t.Fatalf("horizon %d: ring of %d slots, want the smallest power of two above it", horizon, span)
		}
		rng := sim.NewRNG(uint64(horizon))
		var ref []entry // pending, sorted by (cycle, push order)
		seq := int32(0)
		for now := sim.Tick(1); now <= 50*span; now++ {
			var want []vcRef
			for len(ref) > 0 && ref[0].at == now {
				want = append(want, vcRef{bit: ref[0].seq})
				ref = ref[1:]
			}
			if got := w.Take(now); !slices.Equal(got, want) {
				t.Fatalf("horizon %d cycle %d: took %v, want %v", horizon, now, got, want)
			}
			if w.Len() != len(ref) {
				t.Fatalf("horizon %d cycle %d: Len %d, want %d", horizon, now, w.Len(), len(ref))
			}
			for k := rng.Intn(5); k > 0; k-- {
				seq++
				e := entry{at: now + 2 + sim.Tick(rng.Intn(int(span-2))), seq: seq}
				w.Push(e.at, vcRef{bit: e.seq}, now)
				i := 0
				for i < len(ref) && ref[i].at <= e.at {
					i++
				}
				ref = slices.Insert(ref, i, e)
			}
		}
		now := 3 * span
		for _, at := range []sim.Tick{now - 1, now, now + 1, now + span} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("horizon %d: a push due at %d from cycle %d did not panic", horizon, at, now)
					}
				}()
				w.Push(at, vcRef{}, now)
			}()
		}
	}
}
