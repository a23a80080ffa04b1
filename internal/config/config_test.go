package config

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDefaultIsValid(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Config)
		want   string
	}{
		{"non-square cores", func(c *Config) { c.System.Cores = 10 }, "perfect square"},
		{"zero cores", func(c *Config) { c.System.Cores = 0 }, "perfect square"},
		{"one core", func(c *Config) { c.System.Cores = 1 }, "two nodes"},
		{"33x33 cores", func(c *Config) { c.System.Cores = 1089 }, "MaxCores"},
		{"128x128 cores", func(c *Config) { c.System.Cores = 16384 }, "MaxCores"},
		{"l1 sets not pow2", func(c *Config) { c.System.L1Sets = 12 }, "L1 geometry"},
		{"l1 line not pow2", func(c *Config) { c.System.L1LineBytes = 48 }, "power of two"},
		{"l2 geometry", func(c *Config) { c.System.L2Ways = 0 }, "L2 geometry"},
		{"zero latency", func(c *Config) { c.System.L2HitCycles = 0 }, "latencies"},
		{"message sizes", func(c *Config) { c.System.CtrlBytes = 0 }, "message sizes"},
		{"vcs range", func(c *Config) { c.Mesh.VCs = 0 }, "mesh.vcs"},
		{"buf depth", func(c *Config) { c.Mesh.BufDepth = 0 }, "buf_depth"},
		{"flit bytes", func(c *Config) { c.Mesh.FlitBytes = 0 }, "flit_bytes"},
		{"routing name", func(c *Config) { c.Mesh.Routing = "zigzag" }, "routing"},
		{"wavelengths", func(c *Config) { c.Optical.WavelengthsPerChannel = 0 }, "wavelengths"},
		{"optical rates", func(c *Config) { c.Optical.ClockGHz = 0 }, "rates"},
		{"token hold", func(c *Config) { c.Optical.MaxTokenHold = 0 }, "max_token_hold"},
		{"die edge", func(c *Config) { c.Optical.DieEdgeCm = 0 }, "die_edge"},
		{"ideal latency", func(c *Config) { c.Ideal.LatencyCycles = 0 }, "ideal.latency"},
		{"pattern", func(c *Config) { c.Workload.Kind = WorkloadSynthetic; c.Workload.Pattern = "spiral" }, "pattern"},
		{"rate", func(c *Config) { c.Workload.Kind = WorkloadSynthetic; c.Workload.InjectionRate = 0 }, "injection_rate"},
		{"kernel", func(c *Config) { c.Workload.Kernel = "raytrace" }, "kernel"},
		{"scale", func(c *Config) { c.Workload.Scale = 0 }, "scale"},
		{"iterations", func(c *Config) { c.Workload.Iterations = 0 }, "iterations"},
		{"compute scale", func(c *Config) { c.Workload.ComputeScale = 0 }, "compute_scale"},
		{"workload kind", func(c *Config) { c.Workload.Kind = "replay" }, "workload kind"},
		{"network", func(c *Config) { c.Network = "quantum" }, "network"},
		{"sctm iters", func(c *Config) { c.SCTM.MaxIterations = 0 }, "max_iterations"},
		{"sctm tol", func(c *Config) { c.SCTM.ToleranceCycles = -1 }, "tolerance"},
		{"sctm damping", func(c *Config) { c.SCTM.Damping = 1.0 }, "damping"},
		{"sctm mk tol", func(c *Config) { c.SCTM.MakespanTolerance = 0.9 }, "makespan_tolerance"},
		{"max cycles", func(c *Config) { c.MaxCycles = -1 }, "max_cycles"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Default()
			c.mutate(&cfg)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("expected validation error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

func TestMeshWidth(t *testing.T) {
	for _, c := range []struct{ cores, want int }{{1, 1}, {4, 2}, {16, 4}, {64, 8}, {144, 12}, {256, 16}} {
		cfg := Default()
		cfg.System.Cores = c.cores
		if got := cfg.MeshWidth(); got != c.want {
			t.Errorf("MeshWidth(%d) = %d, want %d", c.cores, got, c.want)
		}
	}
}

func TestMaxCyclesOrDefault(t *testing.T) {
	cfg := Default()
	if cfg.MaxCyclesOrDefault() != 200_000_000 {
		t.Fatalf("default bound = %d", cfg.MaxCyclesOrDefault())
	}
	cfg.MaxCycles = 5000
	if cfg.MaxCyclesOrDefault() != 5000 {
		t.Fatal("explicit bound ignored")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cfg.json")
	cfg := Default()
	cfg.Name = "roundtrip"
	cfg.System.Cores = 16
	cfg.Workload.Kernel = "fft"
	if err := cfg.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != cfg {
		t.Fatalf("round-trip mismatch:\n got %+v\nwant %+v", got, cfg)
	}
}

func TestParsePartialOverridesDefaults(t *testing.T) {
	got, err := Parse([]byte(`{"name":"x","system":{"cores":16,"l1_sets":64,"l1_ways":4,"l1_line_bytes":64,"l2_sets_per_bank":256,"l2_ways":8,"l2_hit_cycles":6,"mem_cycles":120,"ctrl_bytes":8,"data_bytes":72}}`))
	if err != nil {
		t.Fatal(err)
	}
	if got.System.Cores != 16 {
		t.Fatalf("cores = %d", got.System.Cores)
	}
	// Untouched sections keep defaults.
	if got.Mesh.VCs != Default().Mesh.VCs {
		t.Fatal("defaults not preserved for unspecified sections")
	}
}

func TestParseRejectsUnknownFields(t *testing.T) {
	if _, err := Parse([]byte(`{"nmae":"typo"}`)); err == nil {
		t.Fatal("unknown field accepted")
	}
}

// A document is one JSON value: a valid value followed by anything but
// whitespace is rejected, for configs and sweep specs alike.
func TestParseRejectsTrailingData(t *testing.T) {
	for _, tail := range []string{"garbage", "{}", "]", "1"} {
		if _, err := Parse([]byte(`{"seed":7}` + tail)); err == nil {
			t.Errorf("config with trailing %q accepted", tail)
		}
		if _, err := ParseSweep([]byte(`{"cores":[16]}` + tail)); err == nil {
			t.Errorf("sweep spec with trailing %q accepted", tail)
		}
	}
	if _, err := Parse([]byte("{\"seed\":7} \n\t")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

// Axis values may repeat, so the expanded grid is capped — per axis, so the
// check itself cannot overflow on axes whose product does.
func TestSweepValidateCapsTheGrid(t *testing.T) {
	s := Sweep{Networks: []NetworkKind{NetOptical}, Cores: []int{16}, Faults: []string{"off"}, Kernels: []string{"stencil"}}
	s.Wavelengths = make([]int, MaxSweepArms)
	for i := range s.Wavelengths {
		s.Wavelengths[i] = 1 + i%128
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("grid of %d arms rejected: %v", s.Arms(), err)
	}
	s.Wavelengths = append(s.Wavelengths, 4)
	if err := s.Validate(); err == nil {
		t.Fatalf("grid of %d arms accepted", s.Arms())
	}
	// Five axes of 2^13 entries: the true product, 2^65, wraps an int64. The
	// cap is checked before any axis value is.
	const n = 1 << 13
	s = Sweep{Networks: make([]NetworkKind, n), Cores: make([]int, n), Wavelengths: make([]int, n),
		Faults: make([]string, n), Kernels: make([]string, n)}
	if err := s.Validate(); err == nil || !strings.Contains(err.Error(), "arms") {
		t.Fatalf("overflowing grid (Arms() wraps to %d) not refused for its size: %v", s.Arms(), err)
	}
}

func TestParseRejectsInvalid(t *testing.T) {
	if _, err := Parse([]byte(`{"system":{"cores":10}}`)); err == nil {
		t.Fatal("invalid config accepted")
	}
	if _, err := Parse([]byte(`{`)); err == nil {
		t.Fatal("malformed JSON accepted")
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Fatal("missing file did not error")
	}
}

func TestSaveCreatesReadableJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "out.json")
	cfg := Default()
	if err := cfg.Save(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "\"cores\": 64") {
		t.Fatalf("saved JSON missing expected field:\n%s", data)
	}
}
