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
// proof that skipping empty and other-port VCs, by-value ring buffers and
// live-set iteration change no simulated result.
func TestDifferentialAgainstReference(t *testing.T) {
	variants := []struct{ topology, routing string }{
		{"mesh", "xy"}, {"mesh", "westfirst"}, {"torus", "xy"},
	}
	seed := uint64(100)
	for _, v := range variants {
		for _, vcs := range []int{1, 3, 4, 6, 16} {
			if v.topology == "torus" && vcs < 6 {
				continue // the dateline discipline needs two VCs per class
			}
			for _, depth := range []int{1, 2, 4} {
				cfg := meshCfg()
				cfg.Topology, cfg.Routing, cfg.VCs, cfg.BufDepth = v.topology, v.routing, vcs, depth
				seed++
				cfg.LinkCycles = 1 + int64(seed%2)
				nodes := 16
				if seed%3 == 0 {
					nodes = 9 // odd width: the torus tie-break takes its other branch
				}
				s := seed
				t.Run(fmt.Sprintf("%s-%s-vc%d-d%d", v.topology, v.routing, vcs, depth), func(t *testing.T) {
					runDifferential(t, nodes, cfg, s)
				})
			}
		}
	}
}

func runDifferential(t *testing.T, nodes int, cfg config.Mesh, seed uint64) {
	n := New(nodes, cfg)
	ref := newRefNetwork(nodes, cfg)
	var got, want []*noc.Message
	n.SetDeliver(func(m *noc.Message) { got = append(got, m) })
	ref.deliver = func(m *noc.Message) { want = append(want, m) }

	rng := sim.NewRNG(seed)
	// Injection probability per node per cycle, by phase: trickle, burst,
	// silence (buffers drain and rings wrap), saturation.
	rates := []float64{0.05, 0.4, 0, 0.9}
	const phase, injectCycles, bound = 60, 480, 400_000
	id := uint64(0)
	for cyc := 0; cyc < injectCycles || n.Busy() || ref.Busy(); cyc++ {
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
					Bytes: 1 + rng.Intn(5*cfg.FlitBytes), // one to five flits
					Class: noc.Class(rng.Intn(int(noc.NumClasses))),
				}
				m2 := m
				n.Inject(&m)
				ref.Inject(&m2)
			}
		}
		n.Tick()
		ref.Tick()
		if n.Busy() != ref.Busy() {
			t.Fatalf("cycle %d: Busy %v, reference %v", cyc, n.Busy(), ref.Busy())
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
			if r.rr != rr.rr {
				t.Fatalf("cycle %d router %d: rr %v, reference %v", cyc, i, r.rr, rr.rr)
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
