package enoc

import (
	"slices"
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// mkNet builds a small mesh for router-level white-box tests.
func mkNet(nodes int, mutate func(*config.Mesh)) *Network {
	cfg := config.Default().Mesh
	if mutate != nil {
		mutate(&cfg)
	}
	n := New(nodes, cfg)
	n.SetDeliver(func(m *noc.Message) {})
	return n
}

func TestAcceptFlitOverflowPanics(t *testing.T) {
	n := mkNet(4, nil)
	r := n.routers[0]
	for i := 0; i < n.bufDepth; i++ {
		r.acceptFlit(portNorth, 0, flit{pkt: &packet{msg: &noc.Message{ID: 1}, nflits: 10}}, 0)
	}
	defer func() {
		if recover() == nil {
			t.Error("buffer overflow accepted")
		}
	}()
	r.acceptFlit(portNorth, 0, flit{pkt: &packet{msg: &noc.Message{ID: 2}, nflits: 10}}, 0)
}

func TestAcceptHeadOnBusyVCPanics(t *testing.T) {
	n := mkNet(4, nil)
	r := n.routers[0]
	p1 := &packet{msg: &noc.Message{ID: 1}, nflits: 4}
	r.acceptFlit(portNorth, 0, flit{pkt: p1, isHead: true}, 0)
	defer func() {
		if recover() == nil {
			t.Error("second head on busy VC accepted")
		}
	}()
	p2 := &packet{msg: &noc.Message{ID: 2}, nflits: 4}
	r.acceptFlit(portNorth, 0, flit{pkt: p2, isHead: true}, 0)
}

func TestRouteXYAllQuadrants(t *testing.T) {
	n := mkNet(16, nil) // 4×4, router 5 = (1,1)
	r := n.routers[5]
	cases := map[int]int{
		6:  portEast,  // (2,1)
		4:  portWest,  // (0,1)
		9:  portSouth, // (1,2)
		1:  portNorth, // (1,0)
		10: portEast,  // (2,2): X first
		0:  portWest,  // (0,0): X first
		5:  portLocal,
	}
	for dst, want := range cases {
		p := &packet{msg: &noc.Message{Dst: dst}}
		if got := r.route(p); got != want {
			t.Errorf("route(5→%d) = %s, want %s", dst, portNames[got], portNames[want])
		}
	}
}

func TestWestFirstNeverTurnsToWestLate(t *testing.T) {
	cfg := config.Default().Mesh
	cfg.Routing = "westfirst"
	n := New(16, cfg)
	// From (3,1)=7 to (0,2)=8: must go west immediately.
	p := &packet{msg: &noc.Message{Dst: 8}}
	if got := n.routers[7].route(p); got != portWest {
		t.Fatalf("westward packet routed %s first", portNames[got])
	}
	// From (0,1)=4 to (2,2)=10: dx>0, dy>0 — adaptive between E and S,
	// never W or N.
	p2 := &packet{msg: &noc.Message{Dst: 10}}
	got := n.routers[4].route(p2)
	if got != portEast && got != portSouth {
		t.Fatalf("adaptive choice %s not productive", portNames[got])
	}
}

func TestInjectRejectsBadClass(t *testing.T) {
	n := mkNet(4, nil)
	defer func() {
		if recover() == nil {
			t.Error("invalid class accepted")
		}
	}()
	n.Inject(&noc.Message{ID: 1, Src: 0, Dst: 1, Bytes: 8, Class: noc.Class(9)})
}

func TestSingleVCStillDelivers(t *testing.T) {
	// Degenerate fabric: 1 VC shared by all classes, depth 1 buffers.
	cfg := config.Default().Mesh
	cfg.VCs = 1
	n := newMesh(16, cfg, 1, LinkCycles)
	got := 0
	n.SetDeliver(func(m *noc.Message) { got++ })
	for i := 0; i < 32; i++ {
		n.Inject(&noc.Message{ID: uint64(i + 1), Src: i % 16, Dst: (i * 7) % 16, Bytes: 64, Class: noc.ClassRequest})
	}
	for i := 0; i < 100_000 && n.NextWake() != noc.Never; i++ {
		n.Tick()
	}
	want := 0
	for i := 0; i < 32; i++ {
		want++
	}
	if got != want {
		t.Fatalf("delivered %d of %d on 1-VC fabric", got, want)
	}
}

func TestMultiFlitPacketStaysContiguousPerVC(t *testing.T) {
	// Two long packets from the same source to the same destination: the
	// destination must see each packet's flits complete (tail after head)
	// exactly once — guaranteed by eject() only firing on tails and the
	// delivery counter matching.
	n := mkNet(16, nil)
	got := 0
	n.SetDeliver(func(m *noc.Message) { got++ })
	n.Inject(&noc.Message{ID: 1, Src: 0, Dst: 15, Bytes: 160, Class: noc.ClassRequest})
	n.Inject(&noc.Message{ID: 2, Src: 0, Dst: 15, Bytes: 160, Class: noc.ClassRequest})
	for i := 0; i < 10_000 && n.NextWake() != noc.Never; i++ {
		n.Tick()
	}
	if got != 2 {
		t.Fatalf("delivered %d of 2 long packets", got)
	}
}

func TestLatencyGrowsWithLoad(t *testing.T) {
	light := mkNet(16, nil)
	heavy := mkNet(16, nil)
	lightLat, heavyLat := latencies(light), latencies(heavy)
	for i := 0; i < 4; i++ {
		light.Inject(&noc.Message{ID: uint64(i + 1), Src: 0, Dst: 15, Bytes: 64, Class: noc.ClassRequest})
	}
	for i := 0; i < 200; i++ {
		heavy.Inject(&noc.Message{ID: uint64(i + 1), Src: 0, Dst: 15, Bytes: 64, Class: noc.ClassRequest})
	}
	for i := 0; i < 100_000 && (light.NextWake() != noc.Never || heavy.NextWake() != noc.Never); i++ {
		if light.NextWake() != noc.Never {
			light.Tick()
		}
		if heavy.NextWake() != noc.Never {
			heavy.Tick()
		}
	}
	if len(*heavyLat) != 200 || heavyLat.mean() <= lightLat.mean() {
		t.Fatalf("latency did not grow with load: %g over %d deliveries vs %g",
			heavyLat.mean(), len(*heavyLat), lightLat.mean())
	}
}

// TestRouteFollowsRouter holds Route, the link list the analytic estimator
// charges, to the router: over every ordered pair of 16- and 64-node meshes
// and tori with xy routing, Route visits exactly the (node, output port)
// links a packet takes when router.route is followed hop by hop, torus
// half-ring ties included, and ZeroLoadLatency prices that many hops.
func TestRouteFollowsRouter(t *testing.T) {
	for _, nodes := range []int{16, 64} {
		for _, topology := range []string{"mesh", "torus"} {
			n := mkNet(nodes, func(c *config.Mesh) { c.Topology, c.Routing, c.VCs = topology, "xy", 6 })
			for src := 0; src < nodes; src++ {
				for dst := 0; dst < nodes; dst++ {
					var want []int
					p := &packet{msg: &noc.Message{Src: src, Dst: dst}}
					for node := src; ; {
						port := n.routers[node].route(p)
						if port == portLocal {
							break
						}
						if len(want) > nodes {
							t.Fatalf("%s %d→%d: the router never delivers", topology, src, dst)
						}
						want = append(want, node*portLocal+port)
						node = n.routers[node].outLink[port].dst.id
					}
					var got []int
					n.Route(src, dst, func(link int) { got = append(got, link) })
					if !slices.Equal(got, want) {
						t.Fatalf("%s %d-node %d→%d: Route visits links %v, the router takes %v", topology, nodes, src, dst, got, want)
					}
					if src == dst {
						continue
					}
					hops := sim.Tick(len(want))
					if zl := (hops+1)*RouterStages + hops*LinkCycles + 1; n.ZeroLoadLatency(src, dst, 1) != zl {
						t.Fatalf("%s %d-node %d→%d: ZeroLoadLatency %d, want %d for %d hops", topology, nodes, src, dst, n.ZeroLoadLatency(src, dst, 1), zl, hops)
					}
				}
			}
		}
	}
}
