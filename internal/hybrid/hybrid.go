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
	optical onoc.Crossbar
	width   int
	nodes   int

	// threshold is the minimum hop distance that goes optical.
	threshold int

	// held keeps what a mesh delivery callback routes optically until the
	// crossbar, a cycle behind while the mesh ticks, has caught up.
	held []*noc.Message

	// rerouted counts messages diverted to the mesh by the optical
	// sub-fabric's laser-droop blacklist.
	rerouted uint64
}

// New builds a hybrid fabric: messages with Manhattan distance ≥ threshold
// ride the optical crossbar, the rest the electrical mesh. threshold ≤ 1
// sends everything optical; a threshold above the mesh diameter sends
// everything electrical. Faults are injected deterministically on the
// optical sub-fabric, and graceful degradation is a routing policy:
// lightpaths blacklisted by laser droop (DerateFactor > 1) fall back to the
// electrical mesh instead of limping along at reduced rate.
func New(nodes int, mesh config.Mesh, optical config.Optical, threshold int, faults config.Faults, seed uint64) *Network {
	width := config.GridWidth(nodes)
	if width*width != nodes {
		panic(fmt.Sprintf("hybrid: %d nodes is not a perfect square", nodes))
	}
	n := &Network{
		mesh:      enoc.New(nodes, mesh),
		width:     width,
		nodes:     nodes,
		threshold: threshold,
		optical:   onoc.NewCrossbar(nodes, optical, faults, seed),
	}
	return n
}

// Nodes implements noc.Network.
func (n *Network) Nodes() int { return n.nodes }

// Now implements noc.Network.
func (n *Network) Now() sim.Tick { return n.mesh.Now() }

// Stats implements noc.Network: the sum of both sub-fabrics' counters, plus
// the messages held for the crossbar as injected and the droop reroutes.
func (n *Network) Stats() noc.Stats {
	st := n.mesh.Stats()
	st.Merge(n.optical.Stats())
	st.Injected += uint64(len(n.held))
	st.Faults.Rerouted = n.rerouted
	return st
}

// Optical exposes the photonic sub-fabric.
func (n *Network) Optical() onoc.Crossbar { return n.optical }

// Mesh exposes the electrical sub-fabric.
func (n *Network) Mesh() *enoc.Network { return n.mesh }

// SetDeliver implements noc.Network: both sub-fabrics deliver straight to fn.
func (n *Network) SetDeliver(fn noc.DeliverFunc) {
	n.mesh.SetDeliver(fn)
	n.optical.SetDeliver(fn)
}

// long reports whether a message travels at least the threshold's Manhattan
// distance, so the routing rule sends it optical unless droop forbids.
func (n *Network) long(src, dst int) bool {
	sx, sy := src%n.width, src/n.width
	dx, dy := dst%n.width, dst/n.width
	return src != dst && abs(dx-sx)+abs(dy-sy) >= n.threshold
}

// RoutesOptical is the routing rule: a message rides the crossbar when it is
// long and laser droop has not blacklisted its lightpath (DerateFactor > 1
// falls back to the mesh). Inject, ZeroLoadLatency and the analytic
// estimator all read it.
func (n *Network) RoutesOptical(src, dst int) bool {
	return n.long(src, dst) && n.optical.DerateFactor(src, dst) == 1
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
	if n.RoutesOptical(m.Src, m.Dst) {
		if n.optical.Now() < n.mesh.Now() {
			n.held = append(n.held, m)
		} else {
			n.optical.Inject(m)
		}
		return
	}
	if n.long(m.Src, m.Dst) {
		n.rerouted++
	}
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
// layer's reroute counter.
type hybridSnapshot struct {
	mesh, optical noc.Snapshot
	rerouted      uint64
}

// SnapshotAt implements noc.Snapshot: both sub-fabrics share the clock.
func (s *hybridSnapshot) SnapshotAt() sim.Tick { return s.mesh.SnapshotAt() }

// Snapshot implements noc.Checkpointer.
func (n *Network) Snapshot() noc.Snapshot {
	return &hybridSnapshot{
		mesh:     n.mesh.Snapshot(),
		optical:  n.optical.Snapshot(),
		rerouted: n.rerouted,
	}
}

// Restore implements noc.Checkpointer.
func (n *Network) Restore(s noc.Snapshot) {
	snap := s.(*hybridSnapshot)
	n.mesh.Restore(snap.mesh)
	n.optical.Restore(snap.optical)
	n.rerouted = snap.rerouted
}

// Reset implements noc.Resettable.
func (n *Network) Reset() {
	n.mesh.Reset()
	n.optical.Reset()
	n.rerouted = 0
}

// ZeroLoadLatency implements noc.Network, following the routing decision —
// including the droop-blacklist fallback, so SCTM's round-0 estimates match
// where traffic will actually flow.
func (n *Network) ZeroLoadLatency(src, dst, bytes int) sim.Tick {
	if n.RoutesOptical(src, dst) {
		return n.optical.ZeroLoadLatency(src, dst, bytes)
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
