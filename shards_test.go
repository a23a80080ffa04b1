package onocsim

import (
	"reflect"
	"testing"
)

// shardCase is one fabric-family cell of the shard-invariance matrix.
type shardCase struct {
	name string
	cfg  Config
	kind NetworkKind
}

// shardCases covers every fabric family through the public API: both optical
// crossbars shard (MWSR per destination, SWMR per source), the ideal fabric
// shards per source, and the mesh/hybrid kinds exercise the serial fallback
// through the exact same Parallelism.Shards path.
func shardCases() []shardCase {
	swmr := smallConfig()
	swmr.Optical.Architecture = "swmr"
	return []shardCase{
		{"ideal", smallConfig(), IdealNet},
		{"optical-mwsr", smallConfig(), Optical},
		{"optical-swmr", swmr, Optical},
		{"electrical-fallback", smallConfig(), Electrical},
		{"hybrid-fallback", smallConfig(), Hybrid},
	}
}

// TestShardInvarianceNaiveReplay locks in the tentpole contract at the API
// level: RunNaiveReplay with any Parallelism.Shards value returns results
// byte-identical to the serial run — Makespan, MeanLatency, Cycles, both
// per-event time vectors, and the full fabric statistics, whose replica
// blocks merge into the serial block.
func TestShardInvarianceNaiveReplay(t *testing.T) {
	for _, tc := range shardCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tr, _, err := uncached.CaptureTraceContext(bg, tc.cfg, IdealNet)
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			serial, err := uncached.RunNaiveReplayContext(bg, tc.cfg, tr, tc.kind)
			if err != nil {
				t.Fatalf("serial replay: %v", err)
			}
			for _, k := range []int{1, 2, 3, 8} {
				cfg := tc.cfg
				cfg.Parallelism.Shards = k
				got, err := uncached.RunNaiveReplayContext(bg, cfg, tr, tc.kind)
				if err != nil {
					t.Fatalf("shards=%d: %v", k, err)
				}
				replaysEqual(t, tc.name, got, serial)
				if !reflect.DeepEqual(got.NetStats, serial.NetStats) {
					t.Errorf("shards=%d: fabric statistics diverge\n got: %+v\nwant: %+v",
						k, got.NetStats, serial.NetStats)
				}
			}
		})
	}
}

// TestShardInvarianceSelfCorrection asserts the whole correction trajectory —
// every iteration's summary, the final estimate, convergence, and total
// cycles — is identical for sharded and serial replay rounds.
func TestShardInvarianceSelfCorrection(t *testing.T) {
	for _, tc := range shardCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			tr, _, err := uncached.CaptureTraceContext(bg, tc.cfg, IdealNet)
			if err != nil {
				t.Fatalf("capture: %v", err)
			}
			serial, err := uncached.RunSelfCorrectionContext(bg, tc.cfg, tr, tc.kind)
			if err != nil {
				t.Fatalf("serial: %v", err)
			}
			cfg := tc.cfg
			cfg.Parallelism.Shards = 8
			got, err := uncached.RunSelfCorrectionContext(bg, cfg, tr, tc.kind)
			if err != nil {
				t.Fatalf("sharded: %v", err)
			}
			if !reflect.DeepEqual(got.Iterations, serial.Iterations) {
				t.Errorf("iteration trajectories diverge:\n sharded: %+v\n  serial: %+v",
					got.Iterations, serial.Iterations)
			}
			replaysEqual(t, tc.name, got.Final, serial.Final)
			if got.Converged != serial.Converged {
				t.Errorf("converged %v, want %v", got.Converged, serial.Converged)
			}
			if got.TotalCycles != serial.TotalCycles {
				t.Errorf("total cycles %d, want %d", got.TotalCycles, serial.TotalCycles)
			}
		})
	}
}

// TestShardsExcludedFromFingerprint pins the cache-compatibility contract:
// because sharding cannot change any result, it must not split the
// result-memo or disk-cache key space either.
func TestShardsExcludedFromFingerprint(t *testing.T) {
	base := smallConfig()
	fp0, err := base.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{0, 1, 2, 8, 64} {
		cfg := base
		cfg.Parallelism.Shards = k
		fp, err := cfg.Fingerprint()
		if err != nil {
			t.Fatalf("shards=%d: %v", k, err)
		}
		if fp != fp0 {
			t.Errorf("shards=%d changes fingerprint: %s vs %s", k, fp, fp0)
		}
	}
}

// TestShardsValidation checks the Parallelism bounds in Config.Validate.
func TestShardsValidation(t *testing.T) {
	cfg := smallConfig()
	cfg.Parallelism.Shards = -1
	if err := cfg.Validate(); err == nil {
		t.Error("negative shard count accepted")
	}
	cfg.Parallelism.Shards = 1 << 20
	if err := cfg.Validate(); err == nil {
		t.Error("implausible shard count accepted")
	}
	cfg.Parallelism.Shards = 8
	if err := cfg.Validate(); err != nil {
		t.Errorf("shards=8 rejected: %v", err)
	}
}
