package onocsim

import (
	"path/filepath"
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/workload"
)

func TestBuildNetworkKinds(t *testing.T) {
	cfg := smallConfig()
	for _, kind := range []NetworkKind{Electrical, Optical, IdealNet} {
		net, err := BuildNetwork(cfg, kind)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if net.Nodes() != cfg.System.Cores {
			t.Fatalf("%s: %d nodes", kind, net.Nodes())
		}
		if net.Now() != 0 {
			t.Fatalf("%s: fabric not fresh", kind)
		}
	}
	if _, err := BuildNetwork(cfg, NetworkKind("quantum")); err == nil {
		t.Fatal("unknown kind accepted")
	}
	bad := cfg
	bad.System.Cores = 10
	if _, err := BuildNetwork(bad, Electrical); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestNetworkFactoryFreshInstances(t *testing.T) {
	cfg := smallConfig()
	f, err := NetworkFactory(cfg, Optical)
	if err != nil {
		t.Fatal(err)
	}
	a, b := f(), f()
	a.Tick()
	if b.Now() != 0 {
		t.Fatal("factory returned shared state")
	}
	bad := cfg
	bad.Mesh.VCs = 0
	if _, err := NetworkFactory(bad, Electrical); err == nil {
		t.Fatal("factory accepted invalid config")
	}
}

func TestCaptureTraceCompleteAndValid(t *testing.T) {
	cfg := smallConfig()
	tr, wall, err := uncached.CaptureTraceContext(bg, cfg, IdealNet)
	if err != nil {
		t.Fatal(err)
	}
	if wall <= 0 {
		t.Fatal("no wall time measured")
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.Nodes != cfg.System.Cores || tr.Workload != "stencil" {
		t.Fatalf("metadata: nodes=%d workload=%q", tr.Nodes, tr.Workload)
	}
	if tr.RefMakespan <= 0 {
		t.Fatal("no makespan")
	}
}

func TestCaptureOnElectricalFabricToo(t *testing.T) {
	cfg := smallConfig()
	tr, _, err := uncached.CaptureTraceContext(bg, cfg, Electrical)
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumEvents() == 0 {
		t.Fatal("no events")
	}
}

// TestCaptureIsTheIdealExecutionDrivenRun pins what R2's capture column
// stands on: a capture is the ideal-fabric execution-driven run with a
// recorder attached, and recording moves neither the cycles the run steps nor
// the makespan it reaches.
func TestCaptureIsTheIdealExecutionDrivenRun(t *testing.T) {
	for _, kernel := range workload.KernelNames() {
		cfg := smallConfig()
		cfg.Workload.Kernel = kernel
		gt, err := uncached.RunExecutionDrivenContext(bg, cfg, IdealNet)
		if err != nil {
			t.Fatal(err)
		}
		recorded, _, _, err := execute(bg, cfg, IdealNet, true)
		if err != nil {
			t.Fatal(err)
		}
		tr, _, err := uncached.CaptureTraceContext(bg, cfg, IdealNet)
		if err != nil {
			t.Fatal(err)
		}
		if recorded.Cycles != gt.Cycles || tr.RefMakespan != gt.Makespan {
			t.Errorf("%s: the capture ran %d cycles to makespan %d, the ideal execution-driven run %d to %d",
				kernel, recorded.Cycles, tr.RefMakespan, gt.Cycles, gt.Makespan)
		}
	}
}

func TestExecutionDrivenDeterminism(t *testing.T) {
	cfg := smallConfig()
	a, err := uncached.RunExecutionDrivenContext(bg, cfg, Optical)
	if err != nil {
		t.Fatal(err)
	}
	b, err := uncached.RunExecutionDrivenContext(bg, cfg, Optical)
	if err != nil {
		t.Fatal(err)
	}
	if a.Makespan != b.Makespan || a.Messages != b.Messages || a.MeanLatency != b.MeanLatency {
		t.Fatalf("nondeterministic ground truth: %+v vs %+v", a, b)
	}
}

func TestTraceSaveLoadAPI(t *testing.T) {
	cfg := smallConfig()
	tr, _, err := uncached.CaptureTraceContext(bg, cfg, IdealNet)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "x.sctm")
	if err := SaveTrace(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := OpenTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// What a stored trace drives is TestStreamInvarianceSelfCorrection's.
	if got.Meta() != tr.Meta() {
		t.Fatal("API round trip mismatch")
	}
}

func TestNaiveReplayOnCaptureFabricIsExact(t *testing.T) {
	// The machinery invariant behind the whole methodology: replaying the
	// recorded timestamps on a fresh instance of the very fabric they
	// were captured on must reproduce the recorded arrivals exactly —
	// capture and replay see the same deterministic network.
	cfg := smallConfig()
	tr, _, err := uncached.CaptureTraceContext(bg, cfg, IdealNet)
	if err != nil {
		t.Fatal(err)
	}
	res, err := uncached.RunNaiveReplayContext(bg, cfg, tr, IdealNet)
	if err != nil {
		t.Fatal(err)
	}
	mismatches := 0
	for i := range tr.Events {
		if res.Arrive[i] != tr.Events[i].RefArrive {
			mismatches++
			if mismatches <= 3 {
				t.Errorf("event %d: replay arrive %d, captured %d",
					i+1, res.Arrive[i], tr.Events[i].RefArrive)
			}
		}
	}
	if mismatches > 0 {
		t.Fatalf("%d/%d arrivals diverged on the capture fabric", mismatches, tr.NumEvents())
	}
	if res.Makespan != tr.RefMakespan {
		t.Fatalf("replay makespan %d != captured %d", res.Makespan, tr.RefMakespan)
	}
}

func TestExecutionDrivenOnTorus(t *testing.T) {
	cfg := smallConfig()
	cfg.Mesh.Topology = "torus"
	cfg.Mesh.VCs = 6
	torus, err := uncached.RunExecutionDrivenContext(bg, cfg, Electrical)
	if err != nil {
		t.Fatal(err)
	}
	mesh, err := uncached.RunExecutionDrivenContext(bg, smallConfig(), Electrical)
	if err != nil {
		t.Fatal(err)
	}
	if torus.Makespan <= 0 || torus.Messages == 0 {
		t.Fatalf("torus run degenerate: %+v", torus)
	}
	// Wraparound halves worst-case distance; the coherent workload must
	// not get slower (message counts may differ slightly because miss
	// interleaving is timing-dependent).
	if torus.Makespan > mesh.Makespan {
		t.Fatalf("torus makespan %d worse than mesh %d", torus.Makespan, mesh.Makespan)
	}
}

func TestStudyOnElectricalTarget(t *testing.T) {
	// The methodology is fabric-agnostic: target the electrical mesh too.
	study, err := uncached.RunStudyContext(bg, smallConfig(), Electrical)
	if err != nil {
		t.Fatal(err)
	}
	if study.SCTMAcc.MakespanErr > 0.25 {
		t.Fatalf("SCTM error on electrical target: %.1f%%", study.SCTMAcc.MakespanErr*100)
	}
}

func TestStudyOnHybridTarget(t *testing.T) {
	// The whole methodology must compose with the hybrid fabric too —
	// capture on ideal, correct against the two-sub-fabric target.
	cfg := smallConfig()
	cfg.Hybrid.Threshold = 3
	study, err := uncached.RunStudyContext(bg, cfg, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	if study.SCTMAcc.MakespanErr > study.NaiveAcc.MakespanErr+0.02 {
		t.Fatalf("sctm %.1f%% worse than naive %.1f%% on hybrid",
			study.SCTMAcc.MakespanErr*100, study.NaiveAcc.MakespanErr*100)
	}
}

func TestStudyAllKernels(t *testing.T) {
	for _, k := range []string{"fft", "lu", "sort"} {
		k := k
		t.Run(k, func(t *testing.T) {
			cfg := smallConfig()
			cfg.Workload.Kernel = k
			study, err := uncached.RunStudyContext(bg, cfg, Optical)
			if err != nil {
				t.Fatal(err)
			}
			if study.SCTM.Final.Makespan <= 0 {
				t.Fatal("degenerate SCTM result")
			}
			// The headline claim, kernel by kernel: correction must not
			// be (much) worse than naive replay.
			if study.SCTMAcc.MakespanErr > study.NaiveAcc.MakespanErr+0.02 {
				t.Errorf("sctm %.1f%% worse than naive %.1f%%",
					study.SCTMAcc.MakespanErr*100, study.NaiveAcc.MakespanErr*100)
			}
		})
	}
}

func TestSelfCorrectionUsesConfigKnobs(t *testing.T) {
	cfg := smallConfig()
	tr, _, err := uncached.CaptureTraceContext(bg, cfg, IdealNet)
	if err != nil {
		t.Fatal(err)
	}
	cfg.SCTM.MaxIterations = 1
	cfg.SCTM.ToleranceCycles = 0
	cfg.SCTM.MakespanTolerance = 0
	res, err := uncached.RunSelfCorrectionContext(bg, cfg, tr, Optical)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Iterations) != 1 {
		t.Fatalf("MaxIterations ignored: %d rounds", len(res.Iterations))
	}
}

func TestLoadConfigAPI(t *testing.T) {
	path := filepath.Join(t.TempDir(), "c.json")
	cfg := DefaultConfig()
	cfg.Name = "api"
	if err := cfg.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadConfig(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Name != "api" {
		t.Fatal("config not loaded")
	}
}

func TestCompareAPI(t *testing.T) {
	truth := GroundTruth{Makespan: 1000, MeanLatency: 50}
	rep := ReplayResult{Makespan: 1100, MeanLatency: 55}
	acc := Compare(rep, truth)
	if acc.MakespanErr != 0.1 {
		t.Fatalf("makespan err = %g", acc.MakespanErr)
	}
}

func TestPowerReportedOnBothFabrics(t *testing.T) {
	cfg := smallConfig()
	for _, kind := range []NetworkKind{Electrical, Optical} {
		res, err := uncached.RunExecutionDrivenContext(bg, cfg, kind)
		if err != nil {
			t.Fatal(err)
		}
		if res.Power.TotalMW() <= 0 {
			t.Fatalf("%s: no power", kind)
		}
		if res.ClassLatency[0] <= 0 || res.ClassLatency[1] <= 0 {
			t.Fatalf("%s: per-class latencies missing: %v", kind, res.ClassLatency)
		}
	}
}

func TestAPIErrorPaths(t *testing.T) {
	bad := smallConfig()
	bad.Workload.Kernel = "fft"
	bad.System.Cores = 144 // square but not a power of two: fft rejects it
	if _, err := uncached.RunExecutionDrivenContext(bg, bad, Optical); err == nil {
		t.Fatal("RunExecutionDriven accepted invalid kernel/core combination")
	}
	if _, _, err := uncached.CaptureTraceContext(bg, bad, IdealNet); err == nil {
		t.Fatal("CaptureTrace accepted invalid kernel/core combination")
	}
	if _, err := uncached.RunStudyContext(bg, bad, Optical); err == nil {
		t.Fatal("RunStudy accepted invalid kernel/core combination")
	}
	invalid := smallConfig()
	invalid.Mesh.VCs = 0
	if _, err := uncached.RunStudyContext(bg, invalid, Electrical); err == nil {
		t.Fatal("RunStudy accepted invalid config")
	}
	tiny := smallConfig()
	tiny.MaxCycles = 10 // guaranteed timeout
	if _, err := uncached.RunExecutionDrivenContext(bg, tiny, Optical); err == nil {
		t.Fatal("cycle bound not enforced")
	}
}

func TestConfigKindConstants(t *testing.T) {
	if Electrical != config.NetElectrical || Optical != config.NetOptical || IdealNet != config.NetIdeal {
		t.Fatal("kind constants drifted")
	}
}
