package hybrid

import (
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/noc"
)

func mkHybrid(threshold int) *Network {
	cfg := config.Default()
	return New(16, cfg.Mesh, cfg.Optical, threshold)
}

func drain(n *Network, bound int) bool {
	for i := 0; i < bound && n.Busy(); i++ {
		n.Tick()
	}
	return !n.Busy()
}

func TestRoutingDecisionByDistance(t *testing.T) {
	n := mkHybrid(3)
	n.SetDeliver(func(m *noc.Message) {})
	// 0→1 is 1 hop: mesh. 0→15 is 6 hops: optical.
	n.Inject(&noc.Message{ID: 1, Src: 0, Dst: 1, Bytes: 64, Class: noc.ClassRequest})
	n.Inject(&noc.Message{ID: 2, Src: 0, Dst: 15, Bytes: 64, Class: noc.ClassRequest})
	if n.ViaMesh != 1 || n.ViaOptical != 1 {
		t.Fatalf("routing: mesh=%d optical=%d", n.ViaMesh, n.ViaOptical)
	}
	if !drain(n, 5000) {
		t.Fatal("did not drain")
	}
	if n.Stats().Delivered != 2 {
		t.Fatalf("delivered %d", n.Stats().Delivered)
	}
}

func TestThresholdExtremes(t *testing.T) {
	allOpt := mkHybrid(1)
	allOpt.SetDeliver(func(m *noc.Message) {})
	allOpt.Inject(&noc.Message{ID: 1, Src: 0, Dst: 1, Bytes: 64, Class: noc.ClassRequest})
	if allOpt.ViaOptical != 1 {
		t.Fatal("threshold 1 should route everything optical")
	}
	allMesh := mkHybrid(100)
	allMesh.SetDeliver(func(m *noc.Message) {})
	allMesh.Inject(&noc.Message{ID: 1, Src: 0, Dst: 15, Bytes: 64, Class: noc.ClassRequest})
	if allMesh.ViaMesh != 1 {
		t.Fatal("huge threshold should route everything electrical")
	}
}

func TestZeroLoadLatencyFollowsRouting(t *testing.T) {
	n := mkHybrid(3)
	// Short hop: mesh ZLL; long hop: optical ZLL.
	if n.ZeroLoadLatency(0, 1, 64) != n.mesh.ZeroLoadLatency(0, 1, 64) {
		t.Fatal("short-hop ZLL should come from the mesh")
	}
	if n.ZeroLoadLatency(0, 15, 64) != n.optical.ZeroLoadLatency(0, 15, 64) {
		t.Fatal("long-hop ZLL should come from the crossbar")
	}
}

func TestPowerReportSumsBothFabrics(t *testing.T) {
	n := mkHybrid(3)
	n.SetDeliver(func(m *noc.Message) {})
	for i := 0; i < 32; i++ {
		n.Inject(&noc.Message{ID: uint64(i + 1), Src: i % 16, Dst: (i*5 + 1) % 16, Bytes: 64, Class: noc.ClassRequest})
	}
	drain(n, 100_000)
	rep := n.PowerReport(n.Now(), 2.0)
	e := n.mesh.PowerReport(n.Now(), 2.0)
	o := n.optical.PowerReport(n.Now(), 2.0)
	if rep.StaticMW != e.StaticMW+o.StaticMW {
		t.Fatalf("static %g != %g + %g", rep.StaticMW, e.StaticMW, o.StaticMW)
	}
	if _, ok := rep.Breakdown["mesh_leakage_mw"]; !ok {
		t.Fatal("missing mesh breakdown prefix")
	}
	if _, ok := rep.Breakdown["optical_laser_mw"]; !ok {
		t.Fatal("missing optical breakdown prefix")
	}
}

func TestHybridWithSWMRSubfabric(t *testing.T) {
	cfg := config.Default()
	cfg.Optical.Architecture = "swmr"
	n := New(16, cfg.Mesh, cfg.Optical, 2)
	got := 0
	n.SetDeliver(func(m *noc.Message) { got++ })
	n.Inject(&noc.Message{ID: 1, Src: 0, Dst: 15, Bytes: 64, Class: noc.ClassRequest})
	if !drain(n, 5000) || got != 1 {
		t.Fatalf("swmr-backed hybrid failed: got=%d", got)
	}
}

func TestHybridNonSquarePanics(t *testing.T) {
	cfg := config.Default()
	defer func() {
		if recover() == nil {
			t.Error("non-square accepted")
		}
	}()
	New(10, cfg.Mesh, cfg.Optical, 3)
}
