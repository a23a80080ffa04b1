package workload

import (
	"testing"
	"testing/quick"
	"time"

	"onocsim/internal/config"
	"onocsim/internal/cpu"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// timeAfter wraps time.After with a nanosecond argument for readability in
// timeout guards.
func timeAfter(ns int64) <-chan time.Time { return time.After(time.Duration(ns)) }

func TestPatternByNameKnown(t *testing.T) {
	for _, name := range []string{"uniform", "transpose", "hotspot", "bitcomplement", "neighbor", "tornado"} {
		if _, err := patternByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := patternByName("spiral"); err == nil {
		t.Error("unknown pattern accepted")
	}
}

func TestPatternsInRange(t *testing.T) {
	rng := sim.NewRNG(5)
	for _, name := range []string{"uniform", "transpose", "hotspot", "bitcomplement", "neighbor", "tornado"} {
		pat, _ := patternByName(name)
		if err := quick.Check(func(sRaw uint8) bool {
			src := int(sRaw) % 64
			d := pat(src, 64, rng)
			return d >= 0 && d < 64
		}, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s out of range: %v", name, err)
		}
	}
}

func TestDeterministicPatternsArePermutations(t *testing.T) {
	// transpose and bitcomplement are involutions; neighbor and tornado
	// are permutations of the node set.
	rng := sim.NewRNG(5)
	for _, name := range []string{"transpose", "bitcomplement", "neighbor", "tornado"} {
		pat, _ := patternByName(name)
		seen := map[int]bool{}
		for s := 0; s < 64; s++ {
			d := pat(s, 64, rng)
			if seen[d] {
				t.Errorf("%s maps two sources to %d", name, d)
			}
			seen[d] = true
		}
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := sim.NewRNG(1)
	pat, _ := patternByName("transpose")
	for s := 0; s < 64; s++ {
		if pat(pat(s, 64, rng), 64, rng) != s {
			t.Fatalf("transpose not an involution at %d", s)
		}
	}
}

func TestUniformAvoidsSelf(t *testing.T) {
	rng := sim.NewRNG(2)
	pat, _ := patternByName("uniform")
	for i := 0; i < 1000; i++ {
		if pat(7, 16, rng) == 7 {
			t.Fatal("uniform produced self-traffic")
		}
	}
}

func TestRunSyntheticDeliversAll(t *testing.T) {
	cfg := config.Default().Workload
	cfg.Kind = config.WorkloadSynthetic
	cfg.Pattern = "uniform"
	cfg.InjectionRate = 0.1
	cfg.PacketBytes = 64
	cfg.Packets = 30
	net := noc.NewIdeal(16, 20, 16)
	res, err := RunSynthetic(net, cfg, 7)
	if err != nil {
		t.Fatal(err)
	}
	if res.Saturated {
		t.Fatal("ideal network saturated at 0.1")
	}
	if res.InjectedPackets != res.DeliveredPackets {
		t.Fatalf("injected %d, delivered %d", res.InjectedPackets, res.DeliveredPackets)
	}
	if res.MeanLatency <= 0 || res.Throughput <= 0 {
		t.Fatalf("degenerate result: %+v", res)
	}
}

func TestRunSyntheticDeterministic(t *testing.T) {
	cfg := config.Default().Workload
	cfg.Kind = config.WorkloadSynthetic
	cfg.Pattern = "hotspot"
	cfg.InjectionRate = 0.2
	cfg.PacketBytes = 32
	cfg.Packets = 20
	run := func() SyntheticResult {
		net := noc.NewIdeal(16, 20, 16)
		res, err := RunSynthetic(net, cfg, 11)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("nondeterministic synthetic run:\n%+v\n%+v", a, b)
	}
}

func TestRunSyntheticTransposeDiagonalTerminates(t *testing.T) {
	// Regression: transpose maps diagonal nodes to themselves; their
	// packet budget must still drain or the injection loop never ends.
	cfg := config.Default().Workload
	cfg.Kind = config.WorkloadSynthetic
	cfg.Pattern = "transpose"
	cfg.InjectionRate = 0.2
	cfg.PacketBytes = 64
	cfg.Packets = 10
	net := noc.NewIdeal(16, 20, 16)
	done := make(chan struct{})
	var res SyntheticResult
	var err error
	go func() {
		res, err = RunSynthetic(net, cfg, 3)
		close(done)
	}()
	select {
	case <-done:
	case <-timeAfter(10e9):
		t.Fatal("transpose run did not terminate")
	}
	if err != nil {
		t.Fatal(err)
	}
	// 4 diagonal nodes of the 4×4 mesh inject nothing.
	if res.InjectedPackets != uint64(12*10) {
		t.Fatalf("injected %d, want 120 (diagonal excluded)", res.InjectedPackets)
	}
}

func TestRunSyntheticRejectsBadPattern(t *testing.T) {
	cfg := config.Default().Workload
	cfg.Pattern = "nope"
	if _, err := RunSynthetic(noc.NewIdeal(4, 10, 0), cfg, 1); err == nil {
		t.Fatal("bad pattern accepted")
	}
}

func kernelCfg(kernel string, cores int) config.Config {
	cfg := config.Default()
	cfg.System.Cores = cores
	cfg.Workload.Kernel = kernel
	cfg.Workload.Scale = 4
	cfg.Workload.Iterations = 2
	return cfg
}

func TestGenerateAllKernels(t *testing.T) {
	for _, k := range KernelNames() {
		progs, err := Generate(kernelCfg(k, 16))
		if err != nil {
			t.Fatalf("%s: %v", k, err)
		}
		if len(progs) != 16 {
			t.Fatalf("%s: %d programs", k, len(progs))
		}
		for c, p := range progs {
			if err := p.Validate(); err != nil {
				t.Fatalf("%s core %d: %v", k, c, err)
			}
			if len(p) == 0 {
				t.Fatalf("%s core %d: empty program", k, c)
			}
		}
	}
	if _, err := Generate(func() config.Config {
		c := kernelCfg("stencil", 16)
		c.Workload.Kernel = "nbody"
		return c
	}()); err == nil {
		t.Fatal("unknown kernel accepted")
	}
}

func TestKernelsBarrierSequencesMatchAcrossCores(t *testing.T) {
	// SPMD invariant: every core must encounter the same barrier IDs in
	// the same order, or the simulation deadlocks.
	for _, k := range KernelNames() {
		progs, err := Generate(kernelCfg(k, 16))
		if err != nil {
			t.Fatal(err)
		}
		ref := barrierSequence(progs[0])
		if len(ref) == 0 {
			t.Fatalf("%s has no barriers", k)
		}
		for c := 1; c < len(progs); c++ {
			got := barrierSequence(progs[c])
			if len(got) != len(ref) {
				t.Fatalf("%s: core %d has %d barriers, core 0 has %d", k, c, len(got), len(ref))
			}
			for i := range ref {
				if got[i] != ref[i] {
					t.Fatalf("%s: core %d barrier %d is %d, core 0 has %d", k, c, i, got[i], ref[i])
				}
			}
		}
	}
}

func barrierSequence(p cpu.Program) []uint64 {
	var ids []uint64
	for _, op := range p {
		if op.Kind == cpu.OpBarrier {
			ids = append(ids, op.Arg)
		}
	}
	return ids
}

func TestKernelsShareAddresses(t *testing.T) {
	// Communication happens only if cores touch each other's lines: at
	// least one address loaded by some core must be stored by another.
	for _, k := range KernelNames() {
		progs, err := Generate(kernelCfg(k, 16))
		if err != nil {
			t.Fatal(err)
		}
		stores := map[uint64]int{}
		for c, p := range progs {
			for _, op := range p {
				if op.Kind == cpu.OpStore {
					stores[op.Arg] = c
				}
			}
		}
		shared := false
	outer:
		for c, p := range progs {
			for _, op := range p {
				if op.Kind == cpu.OpLoad {
					if owner, ok := stores[op.Arg]; ok && owner != c {
						shared = true
						break outer
					}
				}
			}
		}
		if !shared {
			t.Fatalf("%s: no cross-core sharing — kernel generates no coherence traffic", k)
		}
	}
}

func TestFFTRequiresPowerOfTwo(t *testing.T) {
	cfg := kernelCfg("fft", 144) // square but not a power of two
	if _, err := Generate(cfg); err == nil {
		t.Fatal("fft accepted 144 cores")
	}
}

func TestSortUsesLocks(t *testing.T) {
	progs, err := Generate(kernelCfg("sort", 16))
	if err != nil {
		t.Fatal(err)
	}
	locks := 0
	for _, op := range progs[3] {
		if op.Kind == cpu.OpLock {
			locks++
		}
	}
	if locks != 16 {
		t.Fatalf("sort core should lock every bucket once, got %d", locks)
	}
}

func TestComputeScaleScalesCost(t *testing.T) {
	base := kernelCfg("stencil", 16)
	big := base
	big.Workload.ComputeScale = 10
	pb, err := Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := Generate(big)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(ps []cpu.Program) (tot uint64) {
		for _, p := range ps {
			for _, op := range p {
				if op.Kind == cpu.OpCompute {
					tot += op.Arg
				}
			}
		}
		return
	}
	if sum(pg) < 9*sum(pb) {
		t.Fatalf("compute scale ineffective: %d vs %d", sum(pg), sum(pb))
	}
}

func TestScaleCompute(t *testing.T) {
	if scaleCompute(0.1, 0.1) != 1 {
		t.Fatal("floor to 1 cycle")
	}
	if scaleCompute(100, 2) != 200 {
		t.Fatal("scaling wrong")
	}
}

func TestJitterPerturbsComputeOnly(t *testing.T) {
	base := kernelCfg("stencil", 16)
	jit := base
	jit.Workload.Jitter = 0.2
	pb, err := Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	pj, err := Generate(jit)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	for c := range pb {
		if len(pb[c]) != len(pj[c]) {
			t.Fatal("jitter changed program shape")
		}
		for i := range pb[c] {
			if pb[c][i].Kind != pj[c][i].Kind {
				t.Fatal("jitter changed op kinds")
			}
			if pb[c][i].Kind == cpu.OpCompute {
				if pb[c][i].Arg != pj[c][i].Arg {
					changed = true
				}
			} else if pb[c][i].Arg != pj[c][i].Arg {
				t.Fatal("jitter touched a non-compute op")
			}
		}
	}
	if !changed {
		t.Fatal("jitter had no effect on compute ops")
	}
	// Different seeds must give different jitter.
	jit2 := jit
	jit2.Seed = 777
	pj2, err := Generate(jit2)
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for c := range pj {
		for i := range pj[c] {
			if pj[c][i].Arg != pj2[c][i].Arg {
				same = false
			}
		}
	}
	if same {
		t.Fatal("seed does not influence jitter")
	}
	// Zero jitter is the identity.
	pz, err := Generate(base)
	if err != nil {
		t.Fatal(err)
	}
	for c := range pb {
		for i := range pb[c] {
			if pb[c][i] != pz[c][i] {
				t.Fatal("zero jitter not reproducible")
			}
		}
	}
}
