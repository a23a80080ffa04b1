package onoc

import (
	"testing"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

func drainSWMR(n *swmr, bound int) bool {
	for i := 0; i < bound && n.NextWake() != noc.Never; i++ {
		n.Tick()
	}
	return n.NextWake() == noc.Never
}

func TestSWMRSingleMessage(t *testing.T) {
	n := plainSWMR(16, optCfg())
	var got *noc.Message
	n.SetDeliver(func(m *noc.Message) { got = m })
	n.Inject(&noc.Message{ID: 1, Src: 2, Dst: 9, Bytes: 64, Class: noc.ClassRequest})
	if !drainSWMR(n, 1000) {
		t.Fatal("did not drain")
	}
	// Without arbitration, the uncontended latency is exactly ZLL + the
	// one-cycle injection offset window.
	zll := n.ZeroLoadLatency(2, 9, 64)
	if got.Latency() < zll || got.Latency() > zll+2 {
		t.Fatalf("latency %d vs ZLL %d", got.Latency(), zll)
	}
}

func TestSWMRNoArbitrationBeatsMWSRAtZeroLoad(t *testing.T) {
	cfg := optCfg()
	mwsr := plainMWSR(64, cfg)
	swmr := plainSWMR(64, cfg)
	// The SWMR ZLL must be strictly below MWSR's, which includes the
	// expected token wait.
	if swmr.ZeroLoadLatency(0, 32, 64) >= mwsr.ZeroLoadLatency(0, 32, 64) {
		t.Fatalf("swmr %d not faster than mwsr %d",
			swmr.ZeroLoadLatency(0, 32, 64), mwsr.ZeroLoadLatency(0, 32, 64))
	}
}

func TestSWMRSenderChannelSerializes(t *testing.T) {
	n := plainSWMR(4, optCfg())
	var arrives []sim.Tick
	n.SetDeliver(func(m *noc.Message) { arrives = append(arrives, m.Arrive) })
	// One sender, several messages to different destinations: they share
	// the sender's channel and must serialize.
	for i := 0; i < 5; i++ {
		n.Inject(&noc.Message{ID: uint64(i + 1), Src: 0, Dst: 1 + i%3, Bytes: 80, Class: noc.ClassRequest})
	}
	if !drainSWMR(n, 10_000) {
		t.Fatal("did not drain")
	}
	ser := n.SerializationCycles(80)
	for i := 1; i < len(arrives); i++ {
		if arrives[i] < arrives[0]+sim.Tick(i)*ser-2 {
			t.Fatalf("arrival %d at %d too early for serialized channel (ser=%d)", i, arrives[i], ser)
		}
	}
}

func TestSWMRDistinctSendersDontContend(t *testing.T) {
	n := plainSWMR(16, optCfg())
	var maxLat sim.Tick
	n.SetDeliver(func(m *noc.Message) {
		if m.Latency() > maxLat {
			maxLat = m.Latency()
		}
	})
	// All nodes send one message simultaneously — to distinct receivers,
	// on distinct channels: no queueing anywhere.
	for s := 0; s < 16; s++ {
		n.Inject(&noc.Message{ID: uint64(s + 1), Src: s, Dst: (s + 5) % 16, Bytes: 64, Class: noc.ClassRequest})
	}
	if !drainSWMR(n, 10_000) {
		t.Fatal("did not drain")
	}
	worstZLL := n.ZeroLoadLatency(0, 15, 64)
	if maxLat > worstZLL+2 {
		t.Fatalf("uncontended broadcast saw latency %d > ZLL bound %d", maxLat, worstZLL)
	}
}

func TestSWMRLaserPowerExceedsMWSR(t *testing.T) {
	cfg := optCfg()
	mwsr := plainMWSR(64, cfg)
	swmr := plainSWMR(64, cfg)
	// Broadcast splitting: the SWMR laser budget must be far above the
	// point-to-point MWSR budget; tuning stays symmetric.
	if swmr.Budget().LaserPowerMW <= 10*mwsr.Budget().LaserPowerMW {
		t.Fatalf("swmr laser %g not ≫ mwsr %g — broadcast split missing",
			swmr.Budget().LaserPowerMW, mwsr.Budget().LaserPowerMW)
	}
	if swmr.Budget().TuningPowerMW != mwsr.Budget().TuningPowerMW {
		t.Fatalf("tuning power should be symmetric: %g vs %g",
			swmr.Budget().TuningPowerMW, mwsr.Budget().TuningPowerMW)
	}
	rep := swmr.PowerReport(1000)
	if rep.StaticMW <= 0 {
		t.Fatal("no static power")
	}
}

func TestSWMRConstructorPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("single-node swmr accepted")
		}
	}()
	plainSWMR(1, optCfg())
}
