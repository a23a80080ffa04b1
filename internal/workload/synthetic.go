// Package workload provides the traffic that drives the simulators: classic
// synthetic patterns for open-loop network characterization (experiment R4)
// and four parallel kernels with realistic dependency structure — the
// stand-ins for the paper's "real applications" (see DESIGN.md §4).
package workload

import (
	"fmt"

	"onocsim/internal/config"
	"onocsim/internal/enoc"
	"onocsim/internal/metrics"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// pattern maps a source node to a destination for synthetic traffic.
type pattern func(src, nodes int, rng *sim.RNG) int

// patternByName returns a named synthetic pattern. The set matches the
// canonical NoC evaluation suite: uniform random, transpose, hotspot,
// bit-complement, nearest neighbor, tornado.
func patternByName(name string) (pattern, error) {
	switch name {
	case "uniform":
		return func(src, nodes int, rng *sim.RNG) int {
			for {
				d := rng.Intn(nodes)
				if d != src {
					return d
				}
			}
		}, nil
	case "transpose":
		return func(src, nodes int, rng *sim.RNG) int {
			w := config.GridWidth(nodes)
			x, y := src%w, src/w
			return x*w + y
		}, nil
	case "hotspot":
		return func(src, nodes int, rng *sim.RNG) int {
			// 20% of traffic to the center node, rest uniform.
			if rng.Bernoulli(0.2) {
				return nodes / 2
			}
			for {
				d := rng.Intn(nodes)
				if d != src {
					return d
				}
			}
		}, nil
	case "bitcomplement":
		return func(src, nodes int, rng *sim.RNG) int {
			return (nodes - 1) - src
		}, nil
	case "neighbor":
		return func(src, nodes int, rng *sim.RNG) int {
			w := config.GridWidth(nodes)
			x, y := src%w, src/w
			return ((x + 1) % w) + y*w
		}, nil
	case "tornado":
		return func(src, nodes int, rng *sim.RNG) int {
			w := config.GridWidth(nodes)
			x, y := src%w, src/w
			return ((x + w/2) % w) + y*w
		}, nil
	default:
		return nil, fmt.Errorf("workload: unknown pattern %q", name)
	}
}

// SyntheticResult reports an open-loop traffic run.
type SyntheticResult struct {
	// InjectedPackets and DeliveredPackets count packets.
	InjectedPackets  uint64
	DeliveredPackets uint64
	// MeanLatency and P99Latency are in cycles.
	MeanLatency float64
	P99Latency  float64
	// Throughput is accepted flits/node/cycle over the measured window.
	Throughput float64
	// Cycles is the total simulated length.
	Cycles sim.Tick
	// Saturated is set when the drain phase hit its bound, meaning the
	// network could not accept the offered load.
	Saturated bool
	// Faults counts injected-fault events absorbed during the run.
	Faults noc.FaultCounts
}

// RunSynthetic drives a fabric open-loop: every node injects packets of
// cfg.PacketBytes under the given pattern at cfg.InjectionRate (flits per
// node per cycle, in the mesh's enoc.FlitBytes flits on every fabric, so
// loads are comparable), for cfg.Packets packets per node, then drains.
// Determinism follows from the seeded RNG.
func RunSynthetic(net noc.Network, cfg config.Workload, seed uint64) (SyntheticResult, error) {
	pat, err := patternByName(cfg.Pattern)
	if err != nil {
		return SyntheticResult{}, err
	}
	nodes := net.Nodes()
	flitsPerPkt := enoc.FlitsFor(cfg.PacketBytes)
	// Per-cycle packet start probability that yields the offered flit rate.
	pktProb := cfg.InjectionRate / float64(flitsPerPkt)
	if pktProb > 1 {
		pktProb = 1
	}
	rngs := make([]*sim.RNG, nodes)
	for i := range rngs {
		rngs[i] = sim.NewStream(seed, fmt.Sprintf("synthetic-%d", i))
	}
	// The delivery callback folds each message's latency into the run's
	// histogram, then recycles the message.
	var pool noc.MsgPool
	var lat metrics.Histogram
	net.SetDeliver(func(m *noc.Message) {
		lat.Add(int64(m.Latency()))
		pool.Put(m)
	})

	var id uint64
	remaining := make([]int, nodes)
	for i := range remaining {
		remaining[i] = cfg.Packets
	}
	left := nodes * cfg.Packets
	var res SyntheticResult

	// Deterministic patterns can map a node to itself (the transpose
	// diagonal); such draws consume the node's budget without producing
	// fabric traffic, otherwise the injection loop could never finish.
	injectBound := sim.Tick(100_000_000)
	for left > 0 {
		if net.Now() > injectBound {
			return SyntheticResult{}, fmt.Errorf("workload: injection did not finish within %d cycles (rate %g too low for %d packets?)",
				injectBound, cfg.InjectionRate, cfg.Packets)
		}
		net.Tick()
		for n := 0; n < nodes; n++ {
			if remaining[n] == 0 || !rngs[n].Bernoulli(pktProb) {
				continue
			}
			dst := pat(n, nodes, rngs[n])
			remaining[n]--
			left--
			if dst == n {
				continue // self-traffic is excluded from open-loop runs
			}
			id++
			m := pool.Get()
			m.ID = id
			m.Src = n
			m.Dst = dst
			m.Bytes = cfg.PacketBytes
			m.Class = noc.ClassRequest
			net.Inject(m)
			res.InjectedPackets++
		}
	}
	// Drain with a generous bound: saturated networks may hold packets
	// for a long time; cap at a large multiple of the injection window.
	// With injection over, cycles before the fabric's next wake-up are
	// provably idle and are fast-forwarded.
	drainBound := net.Now()*20 + 2_000_000
	for wake := net.NextWake(); wake != noc.Never && net.Now() < drainBound; wake = net.NextWake() {
		if wake > net.Now()+1 {
			if wake > drainBound {
				wake = drainBound + 1
			}
			net.SkipTo(wake - 1)
			if net.Now() >= drainBound {
				break
			}
		}
		net.Tick()
	}
	res.Saturated = net.NextWake() != noc.Never
	st := net.Stats()
	res.DeliveredPackets = st.Delivered
	res.MeanLatency = lat.Mean()
	res.P99Latency = lat.ApproxPercentile(99)
	res.Cycles = net.Now()
	res.Faults = st.Faults
	if res.Cycles > 0 {
		res.Throughput = float64(st.Delivered) * float64(flitsPerPkt) / float64(nodes) / float64(res.Cycles)
	}
	return res, nil
}
