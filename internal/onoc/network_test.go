package onoc

import (
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

func optCfg() config.Optical { return config.Default().Optical }

func drain(n *Network, bound int) bool {
	for i := 0; i < bound && n.Busy(); i++ {
		n.Tick()
	}
	return !n.Busy()
}

func TestSerializationCycles(t *testing.T) {
	cfg := optCfg() // 16 λ × 10 Gbps / 2 GHz = 80 bits/cycle
	n := New(4, cfg)
	cases := []struct {
		bytes int
		want  sim.Tick
	}{
		{1, 1},  // 8 bits
		{10, 1}, // 80 bits exactly
		{11, 2}, // 88 bits
		{80, 8}, // 640 bits
		{1000, 100},
	}
	for _, c := range cases {
		if got := n.SerializationCycles(c.bytes); got != c.want {
			t.Errorf("SerializationCycles(%d) = %d, want %d", c.bytes, got, c.want)
		}
	}
}

func TestPropagationScalesWithDistance(t *testing.T) {
	n := New(16, optCfg())
	near := n.propagation(4, 5) // 1 hop downstream
	far := n.propagation(5, 4)  // 15 hops around the serpentine
	if near < 1 {
		t.Fatal("propagation must be at least one cycle")
	}
	if far <= near {
		t.Fatalf("far propagation %d not > near %d", far, near)
	}
}

func TestSingleMessageDelivery(t *testing.T) {
	n := New(16, optCfg())
	var got *noc.Message
	n.SetDeliver(func(m *noc.Message) { got = m })
	n.Inject(&noc.Message{ID: 1, Src: 2, Dst: 9, Bytes: 64, Class: noc.ClassRequest})
	if !drain(n, 1000) {
		t.Fatal("did not drain")
	}
	if got == nil {
		t.Fatal("no delivery")
	}
	// Latency = token wait + OE + serialization + propagation; bounded by
	// a full token circulation plus constants.
	maxLat := sim.Tick(16*int64(optCfg().TokenHopCycles)) +
		sim.Tick(optCfg().OEOverheadCycles) + n.SerializationCycles(64) +
		sim.Tick(optCfg().PropagationCyclesAcross) + 2
	if got.Latency() < 3 || got.Latency() > maxLat {
		t.Fatalf("latency %d outside (3, %d]", got.Latency(), maxLat)
	}
}

func TestChannelSerializesConcurrentWriters(t *testing.T) {
	// All 15 other nodes write to node 0's channel simultaneously: the
	// channel must serialize, so the span between first and last arrival
	// is at least (writers-1) × serialization.
	n := New(16, optCfg())
	var first, last sim.Tick
	count := 0
	n.SetDeliver(func(m *noc.Message) {
		if count == 0 {
			first = m.Arrive
		}
		last = m.Arrive
		count++
	})
	for s := 1; s < 16; s++ {
		n.Inject(&noc.Message{ID: uint64(s), Src: s, Dst: 0, Bytes: 80, Class: noc.ClassRequest})
	}
	if !drain(n, 100_000) {
		t.Fatal("did not drain")
	}
	ser := n.SerializationCycles(80)
	if span := last - first; span < sim.Tick(14)*ser {
		t.Fatalf("hotspot span %d < %d — channel did not serialize", span, 14*int(ser))
	}
}

func TestMaxTokenHoldPreventsStarvation(t *testing.T) {
	cfg := optCfg()
	cfg.MaxTokenHold = 2
	n := New(4, cfg)
	// Node 1 floods node 0's channel; node 3 sends one message. With the
	// hold bound, node 3 must get through long before the flood ends.
	var arrivals []uint64
	n.SetDeliver(func(m *noc.Message) { arrivals = append(arrivals, m.ID) })
	for i := 0; i < 50; i++ {
		n.Inject(&noc.Message{ID: uint64(i + 100), Src: 1, Dst: 0, Bytes: 80, Class: noc.ClassRequest})
	}
	n.Inject(&noc.Message{ID: 1, Src: 3, Dst: 0, Bytes: 80, Class: noc.ClassRequest})
	if !drain(n, 100_000) {
		t.Fatal("did not drain")
	}
	pos := -1
	for i, id := range arrivals {
		if id == 1 {
			pos = i
			break
		}
	}
	if pos < 0 {
		t.Fatal("victim message never arrived")
	}
	if pos > 10 {
		t.Fatalf("victim message arrived at position %d of %d — starved", pos, len(arrivals))
	}
}

func TestZeroLoadLatencyShape(t *testing.T) {
	n := New(64, optCfg())
	if n.ZeroLoadLatency(3, 3, 64) != 1 {
		t.Fatal("self ZLL should be 1")
	}
	if n.ZeroLoadLatency(0, 1, 16) >= n.ZeroLoadLatency(0, 1, 4096) {
		t.Fatal("ZLL not increasing with size")
	}
	// Unlike the mesh, the crossbar's ZLL is dominated by token wait and
	// serialization, not hop distance — near and far differ only by
	// propagation.
	diff := n.ZeroLoadLatency(0, 32, 64) - n.ZeroLoadLatency(0, 1, 64)
	if diff < 0 || diff > sim.Tick(optCfg().PropagationCyclesAcross) {
		t.Fatalf("distance sensitivity %d outside propagation budget", diff)
	}
}

func TestPowerReportBudget(t *testing.T) {
	n := New(64, optCfg())
	n.SetDeliver(func(m *noc.Message) {})
	for i := 0; i < 64; i++ {
		n.Inject(&noc.Message{ID: uint64(i + 1), Src: i, Dst: (i + 1) % 64, Bytes: 256, Class: noc.ClassRequest})
	}
	drain(n, 100_000)
	rep := n.PowerReport(n.Now(), optCfg().ClockGHz)
	if rep.StaticMW <= 0 || rep.DynamicMW <= 0 {
		t.Fatalf("power report: %+v", rep)
	}
	if rep.Breakdown["laser_mw"] <= 0 || rep.Breakdown["tuning_mw"] <= 0 {
		t.Fatal("missing laser/tuning breakdown")
	}
	// The crossbar's hallmark: static dominates dynamic at this load.
	if rep.StaticMW < rep.DynamicMW {
		t.Fatalf("expected static-dominated power, got static=%g dynamic=%g", rep.StaticMW, rep.DynamicMW)
	}
	b := n.Budget()
	if b.TotalRings != 64*63*16+64*16 {
		t.Fatalf("ring count = %d", b.TotalRings)
	}
}

func TestTokenWaitRecordedInHopCount(t *testing.T) {
	n := New(16, optCfg())
	n.SetDeliver(func(m *noc.Message) {})
	for s := 1; s < 8; s++ {
		n.Inject(&noc.Message{ID: uint64(s), Src: s, Dst: 0, Bytes: 80, Class: noc.ClassRequest})
	}
	drain(n, 100_000)
	if n.Stats().HopCount.Count() != 7 {
		t.Fatalf("token wait samples = %d", n.Stats().HopCount.Count())
	}
	if n.Stats().HopCount.Max() <= n.Stats().HopCount.Min() {
		t.Fatal("contending writers should see different token waits")
	}
}

func TestConstructorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("single-node crossbar accepted")
		}
	}()
	New(1, optCfg())
}

func TestChannelConservation(t *testing.T) {
	// Every injected (non-self) message grabs the token exactly once and
	// its bits are accounted once.
	n := New(16, optCfg())
	n.SetDeliver(func(m *noc.Message) {})
	var bytes uint64
	rng := sim.NewRNG(43)
	injected := uint64(0)
	for k := 0; k < 20; k++ {
		for s := 0; s < 16; s++ {
			d := rng.Intn(16)
			if d == s {
				continue
			}
			sz := 8 + rng.Intn(200)
			n.Inject(&noc.Message{ID: uint64(k*16 + s + 1), Src: s, Dst: d, Bytes: sz, Class: noc.ClassRequest})
			bytes += uint64(sz)
			injected++
		}
	}
	if !drain(n, 200_000) {
		t.Fatal("did not drain")
	}
	if n.grabs != injected {
		t.Fatalf("token grabs %d != injected %d", n.grabs, injected)
	}
	if n.bitsSent != bytes*8 {
		t.Fatalf("bits sent %d != injected bits %d", n.bitsSent, bytes*8)
	}
	for _, ch := range n.channels {
		if ch.queued != 0 {
			t.Fatalf("channel %d still queues %d", ch.dst, ch.queued)
		}
	}
}
