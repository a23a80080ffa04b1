package workload

import (
	"fmt"

	"onocsim/internal/config"
	"onocsim/internal/cpu"
	"onocsim/internal/sim"
)

// The kernels below generate per-core cpu.Programs whose communication
// archetypes mirror the SPLASH-2/PARSEC workloads the paper ran:
//
//	fft     — butterfly all-to-all permutation, barrier per stage
//	lu      — pivot one-to-many broadcast through shared lines, two
//	          barriers per elimination step, shrinking parallelism
//	stencil — nearest-neighbor halo exchange + barrier per sweep
//	sort    — lock-protected bucket exchange (sample sort), then barrier
//
// Sharing is expressed entirely through the memory system: a core "sends"
// data by storing lines that other cores later load, which drives the full
// MSI protocol (misses, invalidations, recalls) and yields the causal and
// synchronization dependency chains the Self-Correction Trace Model feeds on.

// lineAddr returns the byte address of global line index li.
func lineAddr(li uint64, lineBytes int) uint64 { return li * uint64(lineBytes) }

// region lays out a per-core array: core c's slice of a region starting at
// base (in lines) with span lines per core.
func region(base uint64, core, span int) uint64 {
	return base + uint64(core)*uint64(span)
}

// scaleCompute applies the configured compute scaling with a floor of one
// cycle.
func scaleCompute(cycles float64, scale float64) int64 {
	v := int64(cycles * scale)
	if v < 1 {
		v = 1
	}
	return v
}

// Generate builds the per-core programs for the configured kernel.
func Generate(cfg config.Config) ([]cpu.Program, error) {
	w := cfg.Workload
	var progs []cpu.Program
	var err error
	switch w.Kernel {
	case "fft":
		progs, err = genFFT(cfg)
	case "lu":
		progs, err = genLU(cfg)
	case "stencil":
		progs, err = genStencil(cfg)
	case "sort":
		progs, err = genSort(cfg)
	case "reduce":
		progs, err = genReduce(cfg)
	default:
		return nil, fmt.Errorf("workload: unknown kernel %q", w.Kernel)
	}
	if err != nil {
		return nil, err
	}
	applyJitter(progs, cfg.Seed, w.Jitter)
	return progs, nil
}

// applyJitter perturbs every compute op by a seed-driven factor in
// [1−j, 1+j), modelling input-dependent work. Zero jitter leaves the
// programs untouched, so the default experiments remain bit-reproducible
// across configurations that only differ in seed.
func applyJitter(progs []cpu.Program, seed uint64, j float64) {
	if j <= 0 {
		return
	}
	for c := range progs {
		rng := sim.NewStream(seed, fmt.Sprintf("jitter-core-%d", c))
		for i := range progs[c] {
			if progs[c][i].Kind != cpu.OpCompute {
				continue
			}
			f := 1 + j*(2*rng.Float64()-1)
			v := int64(float64(progs[c][i].Arg) * f)
			if v < 1 {
				v = 1
			}
			progs[c][i].Arg = uint64(v)
		}
	}
}

// genReduce produces an allreduce: a binary reduction tree (each parent
// reads its children's partial blocks after a per-level barrier) followed by
// a broadcast down the same tree — the convergecast/broadcast archetype of
// iterative solvers' dot products. Repeated cfg.Iterations times.
func genReduce(cfg config.Config) ([]cpu.Program, error) {
	P := cfg.System.Cores
	if P&(P-1) != 0 {
		return nil, fmt.Errorf("workload: reduce needs a power-of-two core count, got %d", P)
	}
	span := cfg.Workload.Scale
	iters := cfg.Workload.Iterations
	lb := cpu.L1LineBytes
	const base = 5 << 20
	levels := 0
	for 1<<levels < P {
		levels++
	}
	progs := make([]cpu.Program, P)
	for c := 0; c < P; c++ {
		var p cpu.Program
		myBase := region(base, c, span)
		for it := 0; it < iters; it++ {
			// Produce a local partial result.
			p = append(p, cpu.Compute(scaleCompute(float64(span*8), cfg.Workload.ComputeScale)))
			for r := 0; r < span; r++ {
				p = append(p, cpu.Store(lineAddr(myBase+uint64(r), lb)))
			}
			// Reduce up: at level l, cores with the low l+1 bits zero
			// combine their child's block (child = c | 1<<l).
			for l := 0; l < levels; l++ {
				p = append(p, cpu.Barrier(0))
				if c&((1<<(l+1))-1) == 0 {
					child := c | 1<<l
					chBase := region(base, child, span)
					for r := 0; r < span; r++ {
						p = append(p, cpu.Load(lineAddr(chBase+uint64(r), lb)))
					}
					p = append(p, cpu.Compute(scaleCompute(float64(span*4), cfg.Workload.ComputeScale)))
					for r := 0; r < span; r++ {
						p = append(p, cpu.Store(lineAddr(myBase+uint64(r), lb)))
					}
				} else {
					p = append(p, cpu.Compute(scaleCompute(2, cfg.Workload.ComputeScale)))
				}
			}
			// Broadcast down: everyone reads the root's block.
			p = append(p, cpu.Barrier(0))
			rootBase := region(base, 0, span)
			if c != 0 {
				for r := 0; r < span; r++ {
					p = append(p, cpu.Load(lineAddr(rootBase+uint64(r), lb)))
				}
			}
			p = append(p, cpu.Compute(scaleCompute(float64(span*2), cfg.Workload.ComputeScale)))
			p = append(p, cpu.Barrier(0))
		}
		progs[c] = p
	}
	patchBarriers(progs, iters*(levels+2))
	return progs, nil
}

// genStencil produces an iterative 5-point Jacobi sweep: each core owns a
// block of `scale` rows (one line per row), loads boundary rows of its mesh
// neighbors, computes, stores its block, and joins a barrier per sweep.
func genStencil(cfg config.Config) ([]cpu.Program, error) {
	P := cfg.System.Cores
	span := cfg.Workload.Scale
	iters := cfg.Workload.Iterations
	lb := cpu.L1LineBytes
	width := cfg.MeshWidth()
	const base = 1 << 20

	progs := make([]cpu.Program, P)
	for c := 0; c < P; c++ {
		var p cpu.Program
		x, y := c%width, c/width
		neighbors := []int{}
		if y > 0 {
			neighbors = append(neighbors, c-width)
		}
		if y < width-1 {
			neighbors = append(neighbors, c+width)
		}
		if x > 0 {
			neighbors = append(neighbors, c-1)
		}
		if x < width-1 {
			neighbors = append(neighbors, c+1)
		}
		myBase := region(base, c, span)
		for it := 0; it < iters; it++ {
			// Halo exchange: read the two boundary rows of each
			// neighbor's block.
			for _, nb := range neighbors {
				nbBase := region(base, nb, span)
				p = append(p,
					cpu.Load(lineAddr(nbBase, lb)),
					cpu.Load(lineAddr(nbBase+uint64(span-1), lb)),
				)
			}
			// Compute on the block: cost ∝ cells.
			cells := float64(span * span)
			p = append(p, cpu.Compute(scaleCompute(cells, cfg.Workload.ComputeScale)))
			// Write back the whole block.
			for r := 0; r < span; r++ {
				p = append(p, cpu.Store(lineAddr(myBase+uint64(r), lb)))
			}
			p = append(p, cpu.Barrier(0)) // id patched below
		}
		progs[c] = p
	}
	patchBarriers(progs, iters)
	return progs, nil
}

// genFFT produces a log₂(P)-stage butterfly: at stage s each core exchanges
// its block with partner id^(1<<s), with a barrier between stages.
func genFFT(cfg config.Config) ([]cpu.Program, error) {
	P := cfg.System.Cores
	if P&(P-1) != 0 {
		return nil, fmt.Errorf("workload: fft needs a power-of-two core count, got %d", P)
	}
	span := cfg.Workload.Scale
	lb := cpu.L1LineBytes
	const base = 2 << 20
	stages := 0
	for 1<<stages < P {
		stages++
	}
	progs := make([]cpu.Program, P)
	for c := 0; c < P; c++ {
		var p cpu.Program
		myBase := region(base, c, span)
		// Initial local work: bit-reverse shuffle + first butterflies.
		p = append(p, cpu.Compute(scaleCompute(float64(span*8), cfg.Workload.ComputeScale)))
		for r := 0; r < span; r++ {
			p = append(p, cpu.Store(lineAddr(myBase+uint64(r), lb)))
		}
		p = append(p, cpu.Barrier(0))
		for s := 0; s < stages; s++ {
			partner := c ^ (1 << s)
			pBase := region(base, partner, span)
			for r := 0; r < span; r++ {
				p = append(p, cpu.Load(lineAddr(pBase+uint64(r), lb)))
			}
			p = append(p, cpu.Compute(scaleCompute(float64(span*16), cfg.Workload.ComputeScale)))
			for r := 0; r < span; r++ {
				p = append(p, cpu.Store(lineAddr(myBase+uint64(r), lb)))
			}
			p = append(p, cpu.Barrier(0))
		}
		progs[c] = p
	}
	patchBarriers(progs, stages+1)
	return progs, nil
}

// genLU produces a blocked right-looking LU elimination: step k's owner
// factors and publishes the pivot block; everyone else reads it and updates
// their remaining blocks. Parallelism shrinks as k advances, which is
// exactly the load-imbalance shape that separates naive replay from the
// corrected model.
func genLU(cfg config.Config) ([]cpu.Program, error) {
	P := cfg.System.Cores
	steps := cfg.Workload.Scale
	lb := cpu.L1LineBytes
	const base = 3 << 20
	const pivotLines = 4
	progs := make([]cpu.Program, P)
	for c := 0; c < P; c++ {
		var p cpu.Program
		for k := 0; k < steps; k++ {
			owner := k % P
			pivBase := region(base, k, pivotLines)
			if c == owner {
				// Factor the pivot block.
				p = append(p, cpu.Compute(scaleCompute(float64(pivotLines*pivotLines*16), cfg.Workload.ComputeScale)))
				for r := 0; r < pivotLines; r++ {
					p = append(p, cpu.Store(lineAddr(pivBase+uint64(r), lb)))
				}
			} else {
				// Idle cores do a sliver of local work so the
				// barrier arrival spread is realistic.
				p = append(p, cpu.Compute(scaleCompute(4, cfg.Workload.ComputeScale)))
			}
			p = append(p, cpu.Barrier(0))
			// Everyone still active reads the pivot and updates its
			// trailing blocks; cores "retire" as elimination passes
			// their panel.
			active := c >= (k % P)
			if active {
				for r := 0; r < pivotLines; r++ {
					p = append(p, cpu.Load(lineAddr(pivBase+uint64(r), lb)))
				}
				myBase := region(base+uint64(steps*pivotLines), c, pivotLines)
				p = append(p, cpu.Compute(scaleCompute(float64(pivotLines*pivotLines*8), cfg.Workload.ComputeScale)))
				for r := 0; r < pivotLines; r++ {
					p = append(p, cpu.Store(lineAddr(myBase+uint64(r), lb)))
				}
			}
			p = append(p, cpu.Barrier(0))
		}
		progs[c] = p
	}
	patchBarriers(progs, 2*steps)
	return progs, nil
}

// genSort produces a sample-sort bucket exchange: local sort, then each core
// appends into every bucket under that bucket's lock (lock-ordered
// all-to-all), then a barrier and a local merge.
func genSort(cfg config.Config) ([]cpu.Program, error) {
	P := cfg.System.Cores
	keysPerCore := cfg.Workload.Scale
	lb := cpu.L1LineBytes
	const base = 4 << 20
	const bucketLines = 2
	progs := make([]cpu.Program, P)
	for c := 0; c < P; c++ {
		var p cpu.Program
		// Local sort: n log n.
		n := float64(keysPerCore)
		p = append(p, cpu.Compute(scaleCompute(n*4, cfg.Workload.ComputeScale)))
		// Exchange: visit buckets starting at our own to stagger lock
		// contention, as a real implementation would.
		for i := 0; i < P; i++ {
			b := (c + i) % P
			bBase := region(base, b, bucketLines)
			p = append(p, cpu.Lock(uint64(b+1)))
			for r := 0; r < bucketLines; r++ {
				p = append(p,
					cpu.Load(lineAddr(bBase+uint64(r), lb)),
					cpu.Store(lineAddr(bBase+uint64(r), lb)),
				)
			}
			p = append(p, cpu.Unlock(uint64(b+1)))
		}
		p = append(p, cpu.Barrier(0))
		// Final local merge of the received bucket.
		p = append(p, cpu.Compute(scaleCompute(n*2, cfg.Workload.ComputeScale)))
		progs[c] = p
	}
	patchBarriers(progs, 1)
	return progs, nil
}

// patchBarriers rewrites the placeholder Barrier(0) ops with sequential IDs
// consistent across cores: the i-th barrier in every core's program gets ID
// i+1. Kernels are SPMD, so barrier counts match by construction; a mismatch
// panics immediately rather than hanging the simulation.
func patchBarriers(progs []cpu.Program, expect int) {
	for c := range progs {
		n := 0
		for i := range progs[c] {
			if progs[c][i].Kind == cpu.OpBarrier {
				n++
				progs[c][i].Arg = uint64(n)
			}
		}
		if n != expect {
			panic(fmt.Sprintf("workload: core %d has %d barriers, expected %d", c, n, expect))
		}
	}
}

// KernelNames lists the available kernels in report order.
func KernelNames() []string { return []string{"fft", "lu", "stencil", "sort", "reduce"} }
