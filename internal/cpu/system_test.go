package cpu

import (
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/noc"
	"onocsim/internal/trace"
)

// testConfig returns a small validated config for protocol tests.
func testConfig(cores int) config.Config {
	cfg := config.Default()
	cfg.System.Cores = cores
	cfg.MaxCycles = 2_000_000
	return cfg
}

// run builds a system on an ideal fabric and runs it to completion.
func run(t *testing.T, cfg config.Config, progs []Program, rec *trace.Recorder) (*System, RunResult) {
	t.Helper()
	return runL1(t, cfg, progs, rec, L1Sets, L1Ways)
}

// runL1 is run with the given L1 geometry.
func runL1(t *testing.T, cfg config.Config, progs []Program, rec *trace.Recorder, l1Sets, l1Ways int) (*System, RunResult) {
	t.Helper()
	net := noc.NewIdeal(cfg.System.Cores, 20, 16)
	sys, err := newSystem(cfg, progs, net, rec, l1Sets, l1Ways)
	if err != nil {
		t.Fatal(err)
	}
	res, err := sys.Run(cfg.MaxCyclesOrDefault())
	if err != nil {
		t.Fatal(err)
	}
	return sys, res
}

// idle returns a program that only computes.
func idle() Program { return Program{Compute(1)} }

// progsFor builds a program slice with prog at core 0 and idle elsewhere.
func progsFor(cores int, prog Program, others ...Program) []Program {
	ps := make([]Program, cores)
	ps[0] = prog
	for i := 1; i < cores; i++ {
		ps[i] = idle()
	}
	for i, p := range others {
		ps[i+1] = p
	}
	return ps
}

func TestComputeOnlyProgram(t *testing.T) {
	cfg := testConfig(4)
	_, res := run(t, cfg, []Program{
		{Compute(100)}, {Compute(50)}, {Compute(10)}, {Compute(200)},
	}, nil)
	// Makespan is the slowest core, plus the step-granularity slack of
	// the tick loop.
	if res.Makespan < 200 || res.Makespan > 210 {
		t.Fatalf("makespan = %d, want ≈200", res.Makespan)
	}
	if res.Messages != 0 {
		t.Fatalf("compute-only run sent %d messages", res.Messages)
	}
}

func TestLoadMissAndHit(t *testing.T) {
	cfg := testConfig(4)
	sys, _ := run(t, cfg, progsFor(4, Program{
		Load(0x10000), // miss: GetS + Data
		Load(0x10000), // hit
		Load(0x10010), // same line → hit
	}), nil)
	st := sys.Stats()
	if st.L1Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.L1Misses)
	}
	if st.L1Hits != 2 {
		t.Fatalf("hits = %d, want 2", st.L1Hits)
	}
	// One miss = GetS + Data = 2 messages.
	if sys.msgID != 2 {
		t.Fatalf("messages = %d, want 2", sys.msgID)
	}
}

func TestStoreUpgradePath(t *testing.T) {
	cfg := testConfig(4)
	sys, _ := run(t, cfg, progsFor(4, Program{
		Load(0x20000),  // GetS miss
		Store(0x20000), // S→M upgrade: GetM while present
		Store(0x20000), // hit in M
	}), nil)
	st := sys.Stats()
	if st.L1Misses != 2 {
		t.Fatalf("misses = %d, want 2 (GetS + upgrade)", st.L1Misses)
	}
	if st.L1Hits != 1 {
		t.Fatalf("hits = %d", st.L1Hits)
	}
	// GetS+Data + GetM+Data = 4 messages.
	if sys.msgID != 4 {
		t.Fatalf("messages = %d, want 4", sys.msgID)
	}
}

func TestInvalidationRound(t *testing.T) {
	cfg := testConfig(4)
	addr := uint64(0x30000)
	// Cores 1..3 read the line; then core 0 writes it, forcing INVs.
	reader := Program{Load(addr), Barrier(1), Compute(1), Barrier(2)}
	writer := Program{Compute(1), Barrier(1), Store(addr), Barrier(2)}
	sys, _ := run(t, cfg, []Program{writer, reader, reader, reader}, nil)
	var inv uint64
	for _, b := range sys.banks {
		inv += b.InvRounds
	}
	if inv != 1 {
		t.Fatalf("invalidation rounds = %d, want 1", inv)
	}
	// After the run, the writer must hold M and readers nothing.
	line := sys.cores[0].l1.lineOf(addr)
	if sys.cores[0].l1.State(line) != stateM {
		t.Fatalf("writer state = %v, want M", sys.cores[0].l1.State(line))
	}
	for c := 1; c < 4; c++ {
		if sys.cores[c].l1.State(line) != stateI {
			t.Fatalf("reader %d still has the line in %v", c, sys.cores[c].l1.State(line))
		}
	}
}

func TestRecallOnReadOfModified(t *testing.T) {
	cfg := testConfig(4)
	addr := uint64(0x40000)
	writer := Program{Store(addr), Barrier(1), Compute(1), Barrier(2)}
	reader := Program{Compute(1), Barrier(1), Load(addr), Barrier(2)}
	sys, _ := run(t, cfg, []Program{writer, reader, idleB(), idleB()}, nil)
	var recalls uint64
	for _, b := range sys.banks {
		recalls += b.Recalls
	}
	if recalls != 1 {
		t.Fatalf("recalls = %d, want 1", recalls)
	}
	line := sys.cores[0].l1.lineOf(addr)
	// Writer downgraded to S, reader has S.
	if sys.cores[0].l1.State(line) != stateS || sys.cores[1].l1.State(line) != stateS {
		t.Fatalf("states after recall: writer=%v reader=%v",
			sys.cores[0].l1.State(line), sys.cores[1].l1.State(line))
	}
}

// idleB is an idle program that still joins the two barriers.
func idleB() Program {
	return Program{Compute(1), Barrier(1), Compute(1), Barrier(2)}
}

func TestRecallForWriteInvalidatesOwner(t *testing.T) {
	cfg := testConfig(4)
	addr := uint64(0x50000)
	first := Program{Store(addr), Barrier(1), Compute(1), Barrier(2)}
	second := Program{Compute(1), Barrier(1), Store(addr), Barrier(2)}
	sys, _ := run(t, cfg, []Program{first, second, idleB(), idleB()}, nil)
	line := sys.cores[0].l1.lineOf(addr)
	if sys.cores[0].l1.State(line) != stateI {
		t.Fatalf("previous owner state = %v, want I", sys.cores[0].l1.State(line))
	}
	if sys.cores[1].l1.State(line) != stateM {
		t.Fatalf("new owner state = %v, want M", sys.cores[1].l1.State(line))
	}
}

func TestDirtyEvictionWritesBack(t *testing.T) {
	// Single-entry L1: every new line evicts.
	sys, _ := runL1(t, testConfig(4), progsFor(4, Program{
		Store(0x1000), // M
		Load(0x2000),  // evicts dirty 0x1000 → WB
		Load(0x1000),  // line must come back from L2, not be lost
	}), nil, 1, 1)
	st := sys.Stats()
	if st.L1Evictions < 2 {
		t.Fatalf("evictions = %d, want ≥2", st.L1Evictions)
	}
	// The final load must observe the line as Uncached-at-home (WB
	// landed) rather than triggering a recall to ourselves.
	var recalls uint64
	for _, b := range sys.banks {
		recalls += b.Recalls
	}
	if recalls != 0 {
		t.Fatalf("self-recall happened: %d", recalls)
	}
}

func TestLockMutualExclusionOrder(t *testing.T) {
	cfg := testConfig(4)
	// All four cores contend for one lock and append to their critical
	// section in home-bank grant order; the test asserts grants are
	// serialized (lock holder count ≤ 1 at the protocol level is implied
	// by construction; here we check all cores completed).
	prog := func() Program {
		return Program{Lock(5), Compute(10), Unlock(5), Barrier(1)}
	}
	sys, res := run(t, cfg, []Program{prog(), prog(), prog(), prog()}, nil)
	if res.Makespan <= 0 {
		t.Fatal("run failed")
	}
	// Four grants were issued, serially: the lock's home bank shows no
	// waiting queue left.
	home := sys.homeOfSync(5)
	l := sys.banks[home].locks[5]
	if l == nil {
		t.Fatal("lock never materialized")
	}
	if l.held || len(l.waitq) != 0 {
		t.Fatalf("lock left held=%v waitq=%d", l.held, len(l.waitq))
	}
	// Serialization lower bound: 4 critical sections of 10 cycles.
	if res.Makespan < 40 {
		t.Fatalf("makespan %d too small for serialized critical sections", res.Makespan)
	}
}

func TestBarrierBlocksUntilAll(t *testing.T) {
	cfg := testConfig(4)
	// Core 3 computes long before the barrier; everyone's post-barrier
	// work must start after it.
	mk := func(pre int64) Program {
		return Program{Compute(pre), Barrier(9), Compute(1)}
	}
	_, res := run(t, cfg, []Program{mk(1), mk(1), mk(1), mk(500)}, nil)
	if res.Makespan < 500 {
		t.Fatalf("makespan %d — barrier did not hold cores", res.Makespan)
	}
}

func TestDeterministicMakespan(t *testing.T) {
	cfg := testConfig(16)
	mk := func() []Program {
		ps := make([]Program, 16)
		for c := range ps {
			ps[c] = Program{
				Store(uint64(0x1000 + c*64)),
				Load(uint64(0x1000 + ((c + 1) % 16 * 64))),
				Barrier(1),
				Load(uint64(0x9000 + c*64)),
				Barrier(2),
			}
		}
		return ps
	}
	_, r1 := run(t, cfg, mk(), nil)
	_, r2 := run(t, cfg, mk(), nil)
	if r1.Makespan != r2.Makespan || r1.Messages != r2.Messages {
		t.Fatalf("nondeterministic: (%d,%d) vs (%d,%d)", r1.Makespan, r1.Messages, r2.Makespan, r2.Messages)
	}
}

func TestCaptureRecordsEverything(t *testing.T) {
	cfg := testConfig(4)
	rec := trace.NewRecorder(4)
	prog := Program{Store(0x7000), Barrier(1), Load(0x7040), Barrier(2)}
	_, res := run(t, cfg, []Program{prog, prog, prog, prog}, rec)
	tr, err := rec.Finish("unit", res.Makespan)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumEvents() == 0 {
		t.Fatal("no events captured")
	}
	if uint64(tr.NumEvents()) != res.Messages {
		t.Fatalf("captured %d events for %d messages", tr.NumEvents(), res.Messages)
	}
	an, err := trace.StreamAnalyze(tr, trace.StreamOptions{Window: trace.Unbounded})
	if err != nil {
		t.Fatal(err)
	}
	st := an.Stats
	if st.DepEdges[trace.DepSync] == 0 {
		t.Fatal("no sync dependencies captured despite barriers")
	}
	if st.DepEdges[trace.DepCausal] == 0 {
		t.Fatal("no causal dependencies captured despite coherence traffic")
	}
	if st.DepEdges[trace.DepProgram] == 0 {
		t.Fatal("no program-order dependencies captured")
	}
}

func TestRunTimeoutErrors(t *testing.T) {
	cfg := testConfig(4)
	net := noc.NewIdeal(4, 20, 16)
	sys, err := NewSystem(cfg, []Program{
		{Compute(100000)}, idle(), idle(), idle(),
	}, net, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sys.Run(100); err == nil {
		t.Fatal("bound exceeded but no error")
	}
}

func TestNewSystemRejectsMismatches(t *testing.T) {
	cfg := testConfig(4)
	net := noc.NewIdeal(4, 20, 16)
	if _, err := NewSystem(cfg, []Program{idle()}, net, nil); err == nil {
		t.Fatal("wrong program count accepted")
	}
	net2 := noc.NewIdeal(8, 20, 16)
	if _, err := NewSystem(cfg, []Program{idle(), idle(), idle(), idle()}, net2, nil); err == nil {
		t.Fatal("node/core mismatch accepted")
	}
	if _, err := NewSystem(cfg, []Program{{Unlock(1)}, idle(), idle(), idle()}, net, nil); err == nil {
		t.Fatal("invalid program accepted")
	}
}

func TestRunsOnAllMessageSizes(t *testing.T) {
	// Control vs data message sizes must be distinguishable in traffic.
	cfg := testConfig(4)
	rec := trace.NewRecorder(4)
	_, res := run(t, cfg, progsFor(4, Program{Store(0xA000)}), rec)
	tr, err := rec.Finish("sizes", res.Makespan)
	if err != nil {
		t.Fatal(err)
	}
	sawCtrl, sawData := false, false
	for i := range tr.Events {
		switch tr.Events[i].Bytes {
		case CtrlBytes:
			sawCtrl = true
		case DataBytes:
			sawData = true
		default:
			t.Fatalf("unexpected message size %d", tr.Events[i].Bytes)
		}
	}
	if !sawCtrl || !sawData {
		t.Fatalf("ctrl=%v data=%v — both sizes expected", sawCtrl, sawData)
	}
}
