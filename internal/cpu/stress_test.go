package cpu

import (
	"fmt"
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/enoc"
	"onocsim/internal/hybrid"
	"onocsim/internal/noc"
	"onocsim/internal/onoc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// randomPrograms generates structurally valid random SPMD programs over a
// small shared address pool, with aligned barriers and balanced locks — the
// protocol fuzz driver.
func randomPrograms(seed uint64, cores, length int) []Program {
	rng := sim.NewRNG(seed)
	const pool = 48 // shared lines
	progs := make([]Program, cores)
	barriers := 1 + rng.Intn(3)
	for c := 0; c < cores; c++ {
		var p Program
		perPhase := length / (barriers + 1)
		bid := uint64(1)
		for phase := 0; phase <= barriers; phase++ {
			for i := 0; i < perPhase; i++ {
				addr := uint64(rng.Intn(pool)) * 64
				switch rng.Intn(6) {
				case 0, 1:
					p = append(p, Load(addr))
				case 2:
					p = append(p, Store(addr))
				case 3:
					p = append(p, Compute(int64(1+rng.Intn(20))))
				case 4:
					lock := uint64(1 + rng.Intn(4))
					p = append(p, Lock(lock), Load(addr), Store(addr), Unlock(lock))
				case 5:
					p = append(p, Store(addr), Load(addr+64))
				}
			}
			if phase < barriers {
				p = append(p, Barrier(bid))
				bid++
			}
		}
		progs[c] = p
	}
	return progs
}

// runOn executes random programs on a fabric and returns the result.
func runOn(t *testing.T, seed uint64, cores int, mk func() noc.Network, rec *trace.Recorder) RunResult {
	t.Helper()
	cfg := config.Default()
	cfg.System.Cores = cores
	progs := randomPrograms(seed, cores, 24)
	sys, err := NewSystem(cfg, progs, mk(), rec)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(10_000_000)
	if err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	return res
}

// TestProtocolStressRandomProgramsAllFabrics fuzzes the MSI + sync protocol
// with random sharing patterns on every fabric; any deadlock, credit leak,
// lost message, or assertion in the protocol surfaces as a timeout or panic.
func TestProtocolStressRandomProgramsAllFabrics(t *testing.T) {
	cfgDefault := config.Default()
	torusMesh := cfgDefault.Mesh
	torusMesh.Topology = "torus"
	torusMesh.VCs = 6
	swmr := cfgDefault.Optical
	swmr.Architecture = "swmr"
	fabrics := map[string]func() noc.Network{
		"ideal":      func() noc.Network { return noc.NewIdeal(16, 20, 16) },
		"electrical": func() noc.Network { return enoc.New(16, cfgDefault.Mesh) },
		"torus":      func() noc.Network { return enoc.New(16, torusMesh) },
		"optical":    func() noc.Network { return onoc.NewCrossbar(16, cfgDefault.Optical, config.Faults{}, 0) },
		"swmr":       func() noc.Network { return onoc.NewCrossbar(16, swmr, config.Faults{}, 0) },
		"hybrid":     func() noc.Network { return hybrid.New(16, cfgDefault.Mesh, cfgDefault.Optical, 3, config.Faults{}, 0) },
	}
	for name, mk := range fabrics {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			for seed := uint64(1); seed <= 25; seed++ {
				res := runOn(t, seed, 16, mk, nil)
				if res.Makespan <= 0 || res.Messages == 0 {
					t.Fatalf("seed %d: degenerate run %+v", seed, res)
				}
			}
		})
	}
}

// TestProtocolStressDeterministic: the same seed must produce identical
// results, run after run, on the contended electrical fabric.
func TestProtocolStressDeterministic(t *testing.T) {
	cfg := config.Default()
	mk := func() noc.Network { return enoc.New(16, cfg.Mesh) }
	for seed := uint64(1); seed <= 5; seed++ {
		a := runOn(t, seed, 16, mk, nil)
		b := runOn(t, seed, 16, mk, nil)
		if a != b {
			t.Fatalf("seed %d nondeterministic: %+v vs %+v", seed, a, b)
		}
	}
}

// TestProtocolStressCaptureCompleteness: every random run must capture a
// complete, valid trace whose event count matches the message count.
func TestProtocolStressCaptureCompleteness(t *testing.T) {
	for seed := uint64(30); seed <= 40; seed++ {
		rec := trace.NewRecorder(16)
		res := runOn(t, seed, 16, func() noc.Network { return noc.NewIdeal(16, 20, 16) }, rec)
		tr, err := rec.Finish(fmt.Sprintf("fuzz-%d", seed), res.Makespan)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if uint64(tr.NumEvents()) != res.Messages {
			t.Fatalf("seed %d: %d events, %d messages", seed, tr.NumEvents(), res.Messages)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("seed %d: invalid trace: %v", seed, err)
		}
	}
}
