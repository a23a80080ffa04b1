package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"onocsim"
	"onocsim/internal/cliutil"
	"onocsim/internal/config"
)

// smallCfgFile writes a fast config and returns its path.
func smallCfgFile(t *testing.T) string {
	t.Helper()
	cfg := onocsim.DefaultConfig()
	cfg.System.Cores = 16
	cfg.Workload.Scale = 4
	cfg.Workload.Iterations = 2
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := cfg.Save(path); err != nil {
		t.Fatal(err)
	}
	return path
}

// opts builds the baseline option set the old positional signature implied.
func opts(cfgPath, network, mode, format string) options {
	return options{cfgPath: cfgPath, network: network, mode: mode, format: format}
}

func TestRunExecMode(t *testing.T) {
	for _, network := range []string{"ideal", "electrical", "optical"} {
		if err := run(opts(smallCfgFile(t), network, "exec", "ascii")); err != nil {
			t.Fatalf("exec on %s: %v", network, err)
		}
	}
}

func TestRunExecModeFaulted(t *testing.T) {
	for _, preset := range []string{"light", "heavy"} {
		o := opts(smallCfgFile(t), "optical", "exec", "ascii")
		o.faults = preset
		if err := run(o); err != nil {
			t.Fatalf("faulted exec (%s): %v", preset, err)
		}
	}
}

func TestRunStudyMode(t *testing.T) {
	if err := run(opts(smallCfgFile(t), "optical", "study", "ascii")); err != nil {
		t.Fatal(err)
	}
}

// An unset -shards must leave the config's own count alone — serial in the
// baseline, which is what `onocsim -dump-config` then prints: K > 1 is the
// measured-slow path and may not be anybody's default.
func TestUnsetShardsKeepsTheConfigs(t *testing.T) {
	cfg, err := effectiveConfig(opts("", "optical", "correct", "ascii"))
	if err != nil {
		t.Fatal(err)
	}
	if data, _ := json.MarshalIndent(cfg, "", "  "); cfg.Parallelism.Shards != 1 || !bytes.Contains(data, []byte(`"shards": 1`)) {
		t.Fatalf("no -shards on the baseline: %d shards, want 1 and `\"shards\": 1` in the dump", cfg.Parallelism.Shards)
	}
	file := onocsim.DefaultConfig()
	file.Parallelism.Shards = 3
	path := filepath.Join(t.TempDir(), "cfg.json")
	if err := file.Save(path); err != nil {
		t.Fatal(err)
	}
	for flag, want := range map[int]int{0: 3, 2: 2} {
		o := opts(path, "optical", "correct", "ascii")
		o.shards = flag
		if cfg, err := effectiveConfig(o); err != nil || cfg.Parallelism.Shards != want {
			t.Fatalf("-shards %d over a file saying 3: %d shards (%v), want %d", flag, cfg.Parallelism.Shards, err, want)
		}
	}
}

func TestRunStudyModeSharded(t *testing.T) {
	o := opts(smallCfgFile(t), "optical", "study", "ascii")
	o.shards = 4
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

// The read-ahead window only bounds traces replayed from a file; on the
// study's resident trace the flag is accepted and changes nothing.
func TestRunStudyModeStreaming(t *testing.T) {
	o := opts(smallCfgFile(t), "optical", "study", "ascii")
	o.shards = 2
	o.window = 1 << 12
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

func TestRunStudyModeIncremental(t *testing.T) {
	o := opts(smallCfgFile(t), "optical", "study", "ascii")
	o.incr = true
	if err := run(o); err != nil {
		t.Fatal(err)
	}
}

// The two job-pipeline modes the CLI gained with the unified pipeline: a
// correction run and its closed-form estimate.
func TestRunCorrectAndEstimateModes(t *testing.T) {
	cfgPath := smallCfgFile(t)
	for _, mode := range []string{"correct", "estimate"} {
		if err := run(opts(cfgPath, "optical", mode, "ascii")); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
	}
}

func TestRunJSONFormats(t *testing.T) {
	cfgPath := smallCfgFile(t)
	if err := run(opts(cfgPath, "optical", "exec", "json")); err != nil {
		t.Fatal(err)
	}
	if err := run(opts(cfgPath, "optical", "study", "json")); err != nil {
		t.Fatal(err)
	}
	if err := run(opts(cfgPath, "optical", "exec", "yaml")); err == nil {
		t.Fatal("unknown format accepted")
	}
}

// TestRunSweepMode drives the sweep pipeline through the CLI entry point on
// a deliberately tiny grid (2 unique arms after identity collapsing).
func TestRunSweepMode(t *testing.T) {
	spec := config.Sweep{
		Networks:    []config.NetworkKind{config.NetElectrical, config.NetOptical},
		Cores:       []int{16},
		Wavelengths: []int{16},
		Faults:      []string{"off"},
		Kernels:     []string{"stencil"},
		Quick:       true,
	}
	spec.Normalize()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "grid.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, format := range []string{"ascii", "json"} {
		o := options{mode: "sweep", format: format, sweepPath: path}
		if err := run(o); err != nil {
			t.Fatalf("sweep (%s): %v", format, err)
		}
	}
	// A bad spec is a runtime error, not a crash.
	bad := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(bad, []byte(`{"cores":[7]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(options{mode: "sweep", format: "ascii", sweepPath: bad}); err == nil {
		t.Fatal("invalid sweep spec accepted")
	}
}

// TestRunExitCodes is the table test for the standardized convention: every
// bad flag value is a usage error (exit 2), while runtime failures such as a
// missing config file exit 1.
func TestRunExitCodes(t *testing.T) {
	cfgPath := smallCfgFile(t)
	badSeed := opts(cfgPath, "optical", "exec", "ascii")
	badSeed.seedMode = "entrails"
	badFaults := opts(cfgPath, "optical", "exec", "ascii")
	badFaults.faults = "catastrophic"
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"unknown mode", run(opts(cfgPath, "optical", "teleport", "ascii")), 2},
		{"unknown network", run(opts(cfgPath, "warp", "exec", "ascii")), 2},
		{"unknown format", run(opts(cfgPath, "optical", "exec", "yaml")), 2},
		{"unknown faults preset", run(badFaults), 2},
		{"unknown seed mode", run(badSeed), 1},
		{"missing config", run(opts(filepath.Join(t.TempDir(), "nope.json"), "optical", "exec", "ascii")), 1},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if got := cliutil.ExitCode(tc.err); got != tc.want {
			t.Errorf("%s: exit code %d, want %d (err: %v)", tc.name, got, tc.want, tc.err)
		}
	}
}
