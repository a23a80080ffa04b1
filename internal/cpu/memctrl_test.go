package cpu

import (
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/enoc"
	"onocsim/internal/noc"
	"onocsim/internal/trace"
)

// mcConfig returns a config with memory controllers enabled and a tiny L2,
// so off-chip traffic is guaranteed.
func mcConfig(ports int) config.Config {
	cfg := config.Default()
	cfg.System.Cores = 16
	cfg.System.MemPorts = ports
	cfg.System.L2SetsPerBank = 2
	cfg.System.L2Ways = 1
	cfg.MaxCycles = 5_000_000
	return cfg
}

func TestMemControllerTrafficAppears(t *testing.T) {
	// The same program with and without controllers: MC mode must produce
	// strictly more messages (the MemReq/MemResp round trips).
	prog := Program{
		Load(0x1000), Load(0x2000), Load(0x3000), Load(0x4000),
		Store(0x1000), Store(0x5000),
	}
	base := mcConfig(0)
	mc := mcConfig(4)
	_, resBase := run(t, base, progsFor(16, prog), nil)
	_, resMC := run(t, mc, progsFor(16, prog), nil)
	if resMC.Messages <= resBase.Messages {
		t.Fatalf("MC mode messages %d not above folded-latency mode %d",
			resMC.Messages, resBase.Messages)
	}
	// Off-chip latency must still be felt: a cold load takes at least
	// MemCycles end to end in both modes.
	if resMC.Makespan < MemCycles {
		t.Fatalf("MC makespan %d below one memory access", resMC.Makespan)
	}
}

func TestMemControllerCornerMapping(t *testing.T) {
	for ports := 1; ports <= 4; ports++ {
		cfg := mcConfig(ports)
		net := noc.NewIdeal(16, 20, 16)
		sys, err := NewSystem(cfg, progsFor(16, idle()), net, nil)
		if err != nil {
			t.Fatal(err)
		}
		corners := map[int]bool{0: true, 3: true, 12: true, 15: true}
		seen := map[int]bool{}
		for line := uint64(0); line < 64; line++ {
			mcNode := sys.memControllerOf(line)
			if !corners[mcNode] {
				t.Fatalf("ports=%d line %d mapped to non-corner %d", ports, line, mcNode)
			}
			seen[mcNode] = true
		}
		if len(seen) != ports {
			t.Fatalf("ports=%d used %d controllers", ports, len(seen))
		}
	}
}

func TestMemControllerPortsOutOfRange(t *testing.T) {
	// Only four chip corners exist: a port count beyond that used to index
	// past the corner array at replay time (a panic on the first off-chip
	// miss). Both the config validator and NewSystem itself — which accepts
	// unvalidated configs — must reject it up front.
	for _, ports := range []int{-1, 5, 8} {
		cfg := mcConfig(ports)
		if err := cfg.Validate(); err == nil {
			t.Errorf("ports=%d: config.Validate accepted it", ports)
		}
		net := noc.NewIdeal(16, 20, 16)
		if _, err := NewSystem(cfg, progsFor(16, idle()), net, nil); err == nil {
			t.Errorf("ports=%d: NewSystem accepted it", ports)
		}
	}
	// The line-interleaved mapping itself must exercise exactly the derived
	// tiles even under a heavy address sweep (regression for the old
	// fixed-[4]int indexing).
	cfg := mcConfig(3)
	net := noc.NewIdeal(16, 20, 16)
	sys, err := NewSystem(cfg, progsFor(16, idle()), net, nil)
	if err != nil {
		t.Fatal(err)
	}
	want := map[int]bool{0: true, 3: true, 12: true}
	for line := uint64(0); line < 1<<12; line++ {
		if mc := sys.memControllerOf(line); !want[mc] {
			t.Fatalf("line %d mapped to tile %d outside the 3-port corner set", line, mc)
		}
	}
}

func TestMemControllerCaptureCompleteness(t *testing.T) {
	cfg := mcConfig(2)
	rec := trace.NewRecorder(16)
	prog := Program{Load(0x9000), Store(0xA000), Barrier(1)}
	progs := make([]Program, 16)
	for i := range progs {
		progs[i] = Program{Load(uint64(0x9000 + i*64)), Store(uint64(0xC000 + i*64)), Barrier(1)}
	}
	_ = prog
	_, res := run(t, cfg, progs, rec)
	tr, err := rec.Finish("mc", res.Makespan)
	if err != nil {
		t.Fatal(err)
	}
	if uint64(tr.NumEvents()) != res.Messages {
		t.Fatalf("captured %d events for %d messages", tr.NumEvents(), res.Messages)
	}
	// MemReq/MemResp events must be present and respect causality chains.
	an, err := trace.StreamAnalyze(tr, trace.StreamOptions{Window: trace.Unbounded})
	if err != nil {
		t.Fatal(err)
	}
	st := an.Stats
	if st.DepEdges[trace.DepCausal] == 0 {
		t.Fatal("no causal edges captured")
	}
}

func TestMemControllerStressAndDeterminism(t *testing.T) {
	cfg := mcConfig(4)
	mk := func() noc.Network {
		return noc.NewIdeal(16, 20, 16)
	}
	for seed := uint64(50); seed <= 60; seed++ {
		progs := randomPrograms(seed, 16, 20)
		sys, err := NewSystem(cfg, progs, mk(), nil)
		if err != nil {
			t.Fatal(err)
		}
		a, err := sys.Run(cfg.MaxCyclesOrDefault())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		sys2, err := NewSystem(cfg, randomPrograms(seed, 16, 20), mk(), nil)
		if err != nil {
			t.Fatal(err)
		}
		b, err := sys2.Run(cfg.MaxCyclesOrDefault())
		if err != nil {
			t.Fatalf("seed %d rerun: %v", seed, err)
		}
		if a != b {
			t.Fatalf("seed %d nondeterministic with MCs: %+v vs %+v", seed, a, b)
		}
	}
}

func TestMemControllerOnElectricalMesh(t *testing.T) {
	// End-to-end on a real fabric: controllers at corners skew traffic
	// toward the edges; the run must still complete.
	cfg := mcConfig(4)
	progs := make([]Program, 16)
	for i := range progs {
		progs[i] = Program{
			Load(uint64(0x11000 + i*64)),
			Store(uint64(0x12000 + i*64)),
			Load(uint64(0x11000 + ((i + 1) % 16 * 64))),
			Barrier(1),
		}
	}
	net := enoc.New(16, cfg.Mesh)
	sys, err := NewSystem(cfg, progs, net, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(cfg.MaxCyclesOrDefault())
	if err != nil {
		t.Fatal(err)
	}
	if res.Makespan <= 0 {
		t.Fatal("degenerate run")
	}
}
