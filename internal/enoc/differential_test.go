package enoc

import (
	"fmt"
	"reflect"
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// TestDifferentialAgainstReference drives the production fabric and the
// naive reference (reference_test.go) with the same seeded traffic and
// compares them after every tick: arbitration pointers, credit and VC-busy
// mirrors, and the messages delivered that tick with their arrival cycles.
// At drain the statistics and power counters must be DeepEqual. This is the
// proof that skipping empty, not-ready and other-port VCs, flits entering
// the downstream buffer when sent, by-value ring buffers and live-set
// iteration change no simulated result. -short runs depth {1,4} ×
// VCs {1,4,6,16} and depth 2 at 16 VCs, each arm with the seed, link
// latency and node count it has in the full matrix: every routing variant
// at both link latencies, and on a 9-node fabric.
func TestDifferentialAgainstReference(t *testing.T) {
	variants := []struct{ topology, routing string }{
		{"mesh", "xy"}, {"mesh", "westfirst"}, {"torus", "xy"},
	}
	ran := map[string]bool{} // "<variant> link <cycles>" and "<variant> <nodes> nodes"
	seed := uint64(100)
	for _, v := range variants {
		for _, vcs := range []int{1, 3, 4, 6, 16} {
			if v.topology == "torus" && vcs < 6 {
				continue // the dateline discipline needs two VCs per class
			}
			for _, depth := range []int{1, 2, 4} {
				cfg := meshCfg()
				cfg.Topology, cfg.Routing, cfg.VCs = v.topology, v.routing, vcs
				seed++
				if testing.Short() && (vcs == 3 || depth == 2 && vcs != 16) {
					continue
				}
				link := 1 + sim.Tick(seed%2)
				nodes := 16
				if seed%3 == 0 {
					nodes = 9 // odd width: the torus tie-break takes its other branch
				}
				ran[fmt.Sprintf("%s-%s link %d", v.topology, v.routing, link)] = true
				ran[fmt.Sprintf("%s-%s %d nodes", v.topology, v.routing, nodes)] = true
				s := seed
				t.Run(fmt.Sprintf("%s-%s-vc%d-d%d", v.topology, v.routing, vcs, depth), func(t *testing.T) {
					runDifferential(t, nodes, cfg, depth, link, s)
				})
			}
		}
	}
	for _, v := range variants {
		for _, arm := range []string{"link 1", "link 2", "9 nodes"} {
			if !ran[v.topology+"-"+v.routing+" "+arm] {
				t.Errorf("no %s-%s arm runs at %s", v.topology, v.routing, arm)
			}
		}
	}
}

// flatRR converts round-robin pointers from reqSet bits (p<<4|v) to the
// reference's flattened (p·vcs + v) numbering. A bit past the last VC of a
// port starts the next port's scan, and one past the local port wraps.
func flatRR(rr [numPorts]int, vcs int) [numPorts]int {
	for o, bit := range rr {
		p, v := bit>>4, bit&15
		if v >= vcs {
			p, v = p+1, 0
		}
		rr[o] = p%numPorts*vcs + v
	}
	return rr
}

func runDifferential(t *testing.T, nodes int, cfg config.Mesh, depth int, link sim.Tick, seed uint64) {
	n := newMesh(nodes, cfg, depth, link)
	ref := newRefNetwork(nodes, cfg, depth, link)
	var got, want []*noc.Message
	n.SetDeliver(func(m *noc.Message) { got = append(got, m) })
	ref.deliver = func(m *noc.Message) { want = append(want, m) }

	rng := sim.NewRNG(seed)
	// Injection probability per node per cycle, by phase: trickle, burst,
	// silence (buffers drain and rings wrap), saturation.
	rates := []float64{0.05, 0.4, 0, 0.9}
	const phase, injectCycles, bound = 60, 480, 400_000
	id := uint64(0)
	for cyc := 0; cyc < injectCycles || n.NextWake() != noc.Never || ref.Busy(); cyc++ {
		if cyc > bound {
			t.Fatalf("no drain within %d cycles", bound)
		}
		if cyc < injectCycles {
			rate := rates[cyc/phase%len(rates)]
			for src := 0; src < nodes; src++ {
				if !rng.Bernoulli(rate) {
					continue
				}
				id++
				m := noc.Message{
					ID: id, Src: src, Dst: rng.Intn(nodes), // Dst == Src exercises the loopback queue
					Bytes: 1 + rng.Intn(5*FlitBytes), // one to five flits
					Class: noc.Class(rng.Intn(int(noc.NumClasses))),
				}
				m2 := m
				n.Inject(&m)
				ref.Inject(&m2)
			}
		}
		n.Tick()
		ref.Tick()
		if busy := n.NextWake() != noc.Never; busy != ref.Busy() {
			t.Fatalf("cycle %d: busy %v, reference %v", cyc, busy, ref.Busy())
		}
		if len(got) != len(want) {
			t.Fatalf("cycle %d: delivered %d messages, reference %d", cyc, len(got), len(want))
		}
		for i := range got {
			if got[i].ID != want[i].ID || got[i].Arrive != want[i].Arrive || got[i].Inject != want[i].Inject {
				t.Fatalf("cycle %d: delivery %d is message %d (inject %d, arrive %d), reference %d (%d, %d)", cyc, i,
					got[i].ID, got[i].Inject, got[i].Arrive, want[i].ID, want[i].Inject, want[i].Arrive)
			}
		}
		got, want = got[:0], want[:0]
		for i, r := range n.routers {
			rr := ref.routers[i]
			if got := flatRR(r.rr, cfg.VCs); got != rr.rr {
				t.Fatalf("cycle %d router %d: rr %v, reference %v", cyc, i, got, rr.rr)
			}
			for p := 0; p < numPorts; p++ {
				if !reflect.DeepEqual(r.outCredit[p], rr.outCredit[p]) {
					t.Fatalf("cycle %d router %d port %s: credits %v, reference %v", cyc, i, portNames[p], r.outCredit[p], rr.outCredit[p])
				}
				if !reflect.DeepEqual(r.outBusy[p], rr.outBusy[p]) {
					t.Fatalf("cycle %d router %d port %s: outBusy %v, reference %v", cyc, i, portNames[p], r.outBusy[p], rr.outBusy[p])
				}
			}
		}
	}
	if id == 0 || n.stats.Delivered != id {
		t.Fatalf("delivered %d of %d", n.stats.Delivered, id)
	}
	if !reflect.DeepEqual(n.stats, ref.stats) {
		t.Fatalf("stats diverge:\n got %+v\nwant %+v", n.stats, ref.stats)
	}
	if n.power != ref.power {
		t.Fatalf("power counters diverge:\n got %+v\nwant %+v", n.power, ref.power)
	}
}
