// Package hybrid implements a path-adaptive opto-electronic NoC: an
// electrical mesh and an optical crossbar side by side, with a per-message
// routing policy that sends short-distance traffic over the mesh (which R4
// shows wins at low hop counts) and long-distance traffic over the crossbar
// (whose latency is distance-insensitive). This is the design direction the
// paper's authors themselves took next ("A Path-Adaptive Opto-electronic
// Hybrid NoC for Chip Multi-processor", ISPA 2013), and it drops out of this
// codebase for free because every fabric implements the same contract.
package hybrid

import (
	"fmt"

	"onocsim/internal/config"
	"onocsim/internal/enoc"
	"onocsim/internal/noc"
	"onocsim/internal/onoc"
	"onocsim/internal/sim"
)

// Network routes each message to one of two sub-fabrics by Manhattan
// distance. It implements noc.Network.
type Network struct {
	mesh    *enoc.Network
	optical noc.Network
	width   int
	nodes   int

	// threshold is the minimum hop distance that goes optical.
	threshold int

	deliver noc.DeliverFunc
	stats   *noc.Stats

	// held keeps what a mesh delivery callback routes optically until the
	// crossbar, a cycle behind while the mesh ticks, has caught up.
	held []*noc.Message

	// der consults the optical sub-fabric's laser-droop blacklist; rerouted
	// counts messages diverted to the mesh because of it.
	der      optDerater
	rerouted uint64

	// Sub-fabric routing counters.
	ViaMesh, ViaOptical uint64
}

// optDerater is the slice of the crossbar API the reroute policy needs: the
// droop-induced serialization multiplier of a lightpath. Both crossbars
// implement it.
type optDerater interface {
	DerateFactor(src, dst int) sim.Tick
}

// New builds a hybrid fabric: messages with Manhattan distance ≥ threshold
// ride the optical crossbar, the rest the electrical mesh. threshold ≤ 1
// sends everything optical; a threshold above the mesh diameter sends
// everything electrical.
func New(nodes int, mesh config.Mesh, optical config.Optical, threshold int) *Network {
	return NewWithFaults(nodes, mesh, optical, threshold, config.Faults{}, 0)
}

// NewWithFaults builds the hybrid fabric with deterministic fault injection
// on the optical sub-fabric. Graceful degradation here is a routing policy:
// lightpaths blacklisted by laser droop (DerateFactor > 1) fall back to the
// electrical mesh instead of limping along at reduced rate.
func NewWithFaults(nodes int, mesh config.Mesh, optical config.Optical, threshold int, faults config.Faults, seed uint64) *Network {
	width := config.GridWidth(nodes)
	if width*width != nodes {
		panic(fmt.Sprintf("hybrid: %d nodes is not a perfect square", nodes))
	}
	n := &Network{
		mesh:      enoc.New(nodes, mesh),
		width:     width,
		nodes:     nodes,
		threshold: threshold,
		stats:     noc.NewStats(),
	}
	if optical.Architecture == "swmr" {
		opt := onoc.NewSWMRWithFaults(nodes, optical, faults, seed)
		n.optical, n.der = opt, opt
	} else {
		opt := onoc.NewWithFaults(nodes, optical, faults, seed)
		n.optical, n.der = opt, opt
	}
	relay := func(m *noc.Message) {
		n.stats.RecordDelivery(m)
		if n.deliver != nil {
			n.deliver(m)
		}
	}
	n.mesh.SetDeliver(relay)
	n.optical.SetDeliver(relay)
	return n
}

// Nodes implements noc.Network.
func (n *Network) Nodes() int { return n.nodes }

// Now implements noc.Network.
func (n *Network) Now() sim.Tick { return n.mesh.Now() }

// Stats implements noc.Network; it aggregates both sub-fabrics' deliveries.
// Fault counters are folded in from the optical sub-fabric on each call — the
// refresh is idempotent, so calling Stats repeatedly is safe.
func (n *Network) Stats() *noc.Stats {
	f := n.optical.Stats().Faults
	f.Rerouted = n.rerouted
	n.stats.Faults = f
	return n.stats
}

// Optical exposes the photonic sub-fabric.
func (n *Network) Optical() noc.Network { return n.optical }

// SetDeliver implements noc.Network.
func (n *Network) SetDeliver(fn noc.DeliverFunc) { n.deliver = fn }

// distance is the Manhattan hop count between two nodes.
func (n *Network) distance(src, dst int) int {
	sx, sy := src%n.width, src/n.width
	dx, dy := dst%n.width, dst/n.width
	return abs(dx-sx) + abs(dy-sy)
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// Inject implements noc.Network: the path-adaptive routing decision, with
// droop-blacklisted optical paths falling back to the electrical mesh.
func (n *Network) Inject(m *noc.Message) {
	n.stats.Injected++
	if m.Src != m.Dst && n.distance(m.Src, m.Dst) >= n.threshold {
		if n.der != nil && n.der.DerateFactor(m.Src, m.Dst) > 1 {
			n.rerouted++
		} else {
			n.ViaOptical++
			if n.optical.Now() < n.mesh.Now() {
				n.held = append(n.held, m)
			} else {
				n.optical.Inject(m)
			}
			return
		}
	}
	n.ViaMesh++
	n.mesh.Inject(m)
}

// Tick implements noc.Network, advancing both sub-fabrics in lockstep. A
// message a mesh delivery callback routes optically enters the crossbar once
// it has ticked too, so the crossbar stamps it with the hybrid's clock.
func (n *Network) Tick() {
	n.mesh.Tick()
	n.optical.Tick()
	for _, m := range n.held {
		n.optical.Inject(m)
	}
	n.held = n.held[:0]
}

// NextWake implements noc.Network: the earlier of the two sub-fabrics'
// wake-ups, since Tick advances both in lockstep.
func (n *Network) NextWake() sim.Tick {
	wake := n.mesh.NextWake()
	if o := n.optical.NextWake(); o < wake {
		wake = o
	}
	return wake
}

// SkipTo implements noc.Network. Both sub-fabrics share the clock, and t is
// below the combined NextWake, hence below each sub-fabric's own.
func (n *Network) SkipTo(t sim.Tick) {
	n.mesh.SkipTo(t)
	n.optical.SkipTo(t)
}

// hybridSnapshot composes the two sub-fabric snapshots with the routing
// layer's own counters and aggregate statistics.
type hybridSnapshot struct {
	mesh    noc.Snapshot
	optical noc.Snapshot
	stats   *noc.Stats

	rerouted            uint64
	viaMesh, viaOptical uint64
}

// SnapshotAt implements noc.Snapshot: both sub-fabrics share the clock.
func (s *hybridSnapshot) SnapshotAt() sim.Tick { return s.mesh.SnapshotAt() }

// Snapshot implements noc.Checkpointer.
func (n *Network) Snapshot() noc.Snapshot {
	return &hybridSnapshot{
		mesh:       n.mesh.Snapshot(),
		optical:    n.optical.(noc.Checkpointer).Snapshot(),
		stats:      n.stats.Clone(),
		rerouted:   n.rerouted,
		viaMesh:    n.ViaMesh,
		viaOptical: n.ViaOptical,
	}
}

// Restore implements noc.Checkpointer.
func (n *Network) Restore(s noc.Snapshot) {
	snap := s.(*hybridSnapshot)
	n.mesh.Restore(snap.mesh)
	n.optical.(noc.Checkpointer).Restore(snap.optical)
	n.stats = snap.stats.Clone()
	n.rerouted = snap.rerouted
	n.ViaMesh = snap.viaMesh
	n.ViaOptical = snap.viaOptical
}

// Reset implements noc.Resettable.
func (n *Network) Reset() {
	n.mesh.Reset()
	n.optical.(noc.Resettable).Reset()
	n.stats = noc.NewStats()
	n.ViaMesh = 0
	n.ViaOptical = 0
	n.rerouted = 0
}

// ZeroLoadLatency implements noc.Network, following the routing decision —
// including the droop-blacklist fallback, so SCTM's round-0 estimates match
// where traffic will actually flow.
func (n *Network) ZeroLoadLatency(src, dst, bytes int) sim.Tick {
	if src != dst && n.distance(src, dst) >= n.threshold {
		if n.der == nil || n.der.DerateFactor(src, dst) == 1 {
			return n.optical.ZeroLoadLatency(src, dst, bytes)
		}
	}
	return n.mesh.ZeroLoadLatency(src, dst, bytes)
}

// PowerReport implements noc.Network: the sum of both sub-fabrics, each at its
// own clock, with the breakdowns merged under prefixed keys.
func (n *Network) PowerReport(elapsed sim.Tick) noc.PowerReport {
	e := n.mesh.PowerReport(elapsed)
	o := n.optical.PowerReport(elapsed)
	breakdown := make(map[string]float64, len(e.Breakdown)+len(o.Breakdown))
	for k, v := range e.Breakdown {
		breakdown["mesh_"+k] = v
	}
	for k, v := range o.Breakdown {
		breakdown["optical_"+k] = v
	}
	return noc.PowerReport{
		StaticMW:  e.StaticMW + o.StaticMW,
		DynamicMW: e.DynamicMW + o.DynamicMW,
		Breakdown: breakdown,
	}
}
