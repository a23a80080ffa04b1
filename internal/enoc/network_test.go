package enoc

import (
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

func meshCfg() config.Mesh { return config.Default().Mesh }

// drain ticks until idle or the bound, returning whether the fabric drained.
func drain(n *Network, bound int) bool {
	for i := 0; i < bound && n.Busy(); i++ {
		n.Tick()
	}
	return !n.Busy()
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
				if r.outCredit[p][v] != cfg.BufDepth {
					t.Fatalf("router %d port %d vc %d: credit %d, want %d (credit leak)",
						r.id, p, v, r.outCredit[p][v], cfg.BufDepth)
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
	rep := n.PowerReport(n.Now(), 2.0)
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

func TestHopCountMatchesManhattan(t *testing.T) {
	n := New(16, meshCfg())
	n.SetDeliver(func(m *noc.Message) {})
	n.Inject(&noc.Message{ID: 1, Src: 0, Dst: 15, Bytes: 16, Class: noc.ClassRequest})
	drain(n, 1000)
	// 0→15 on 4×4: dx=3, dy=3 → 6 hops under minimal routing.
	if got := n.Stats().HopCount.Mean(); got != 6 {
		t.Fatalf("hops = %g, want 6", got)
	}
}

func TestWestFirstAdaptiveStillMinimal(t *testing.T) {
	cfg := meshCfg()
	cfg.Routing = "westfirst"
	n := New(16, cfg)
	n.SetDeliver(func(m *noc.Message) {})
	n.Inject(&noc.Message{ID: 1, Src: 3, Dst: 12, Bytes: 16, Class: noc.ClassRequest})
	drain(n, 1000)
	// 3=(3,0) → 12=(0,3): dx=-3, dy=3 → 6 minimal hops.
	if got := n.Stats().HopCount.Mean(); got != 6 {
		t.Fatalf("westfirst hops = %g, want 6 (non-minimal route)", got)
	}
}

func TestFlitsFor(t *testing.T) {
	cases := []struct{ bytes, flit, want int }{
		{0, 16, 1}, {1, 16, 1}, {16, 16, 1}, {17, 16, 2}, {64, 16, 4}, {65, 16, 5},
	}
	for _, c := range cases {
		if got := FlitsFor(c.bytes, c.flit); got != c.want {
			t.Errorf("FlitsFor(%d,%d) = %d, want %d", c.bytes, c.flit, got, c.want)
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
	n.SetDeliver(func(m *noc.Message) {})
	// 0→15 on a 4×4 torus: (-1,-1) via wraparound = 2 hops, not 6.
	n.Inject(&noc.Message{ID: 1, Src: 0, Dst: 15, Bytes: 16, Class: noc.ClassRequest})
	if !drain(n, 1000) {
		t.Fatal("did not drain")
	}
	if got := n.Stats().HopCount.Mean(); got != 2 {
		t.Fatalf("torus hops = %g, want 2", got)
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
	// only check the fabric-level mean hop count is below the mesh's.)
	mesh := New(64, meshCfg())
	torus := New(64, torusCfg())
	mesh.SetDeliver(func(m *noc.Message) {})
	torus.SetDeliver(func(m *noc.Message) {})
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
	if torus.Stats().HopCount.Mean() >= mesh.Stats().HopCount.Mean() {
		t.Fatalf("torus hops %.2f not below mesh %.2f",
			torus.Stats().HopCount.Mean(), mesh.Stats().HopCount.Mean())
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
	// All occupancy counters must return to zero.
	for _, r := range n.routers {
		if r.occupancy != 0 || r.linkLoad != 0 {
			t.Fatalf("router %d occupancy=%d linkLoad=%d after drain", r.id, r.occupancy, r.linkLoad)
		}
	}
}
