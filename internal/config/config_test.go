package config

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestDefaultIsValid(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

// TestValidateRejections: each row is a document Parse (decode, then
// Validate) must refuse with an error naming want. The rows on leaves that
// are model constants now are refused by strict decoding instead.
func TestValidateRejections(t *testing.T) {
	cases := []struct{ name, doc, want string }{
		{"non-square cores", `{"system":{"cores":10}}`, "perfect square"},
		{"zero cores", `{"system":{"cores":0}}`, "perfect square"},
		{"one core", `{"system":{"cores":1}}`, "two nodes"},
		{"33x33 cores", `{"system":{"cores":1089}}`, "MaxCores"},
		{"128x128 cores", `{"system":{"cores":16384}}`, "MaxCores"},
		{"l1 sets not pow2", `{"system":{"l1_sets":12}}`, "l1_sets"},
		{"l1 line not pow2", `{"system":{"l1_line_bytes":48}}`, "l1_line_bytes"},
		{"l2 geometry", `{"system":{"l2_ways":0}}`, "L2 geometry"},
		{"zero latency", `{"system":{"l2_hit_cycles":0}}`, "l2_hit_cycles"},
		{"message sizes", `{"system":{"ctrl_bytes":0}}`, "ctrl_bytes"},
		{"vcs range", `{"mesh":{"vcs":0}}`, "mesh.vcs"},
		{"buf depth", `{"mesh":{"buf_depth":0}}`, "buf_depth"},
		{"flit bytes", `{"mesh":{"flit_bytes":0}}`, "flit_bytes"},
		{"routing name", `{"mesh":{"routing":"zigzag"}}`, "routing"},
		{"wavelengths", `{"optical":{"wavelengths_per_channel":0}}`, "wavelengths"},
		{"optical rates", `{"optical":{"clock_ghz":0}}`, "clock_ghz"},
		{"token hold", `{"optical":{"max_token_hold":0}}`, "max_token_hold"},
		{"die edge", `{"optical":{"die_edge_cm":0}}`, "die_edge"},
		{"ideal latency", `{"ideal":{"latency_cycles":0}}`, "ideal"},
		{"pattern", `{"workload":{"kind":"synthetic","pattern":"spiral"}}`, "pattern"},
		{"rate", `{"workload":{"kind":"synthetic","injection_rate":0}}`, "injection_rate"},
		{"kernel", `{"workload":{"kernel":"raytrace"}}`, "kernel"},
		{"scale", `{"workload":{"scale":0}}`, "scale"},
		{"iterations", `{"workload":{"iterations":0}}`, "iterations"},
		{"compute scale", `{"workload":{"compute_scale":0}}`, "compute_scale"},
		{"workload kind", `{"workload":{"kind":"replay"}}`, "workload kind"},
		{"network", `{"network":"quantum"}`, "network"},
		{"sctm iters", `{"sctm":{"max_iterations":0}}`, "max_iterations"},
		{"sctm tol", `{"sctm":{"tolerance_cycles":-1}}`, "tolerance"},
		{"sctm damping", `{"sctm":{"damping":1.0}}`, "damping"},
		{"sctm mk tol", `{"sctm":{"makespan_tolerance":0.9}}`, "makespan_tolerance"},
		{"max cycles", `{"max_cycles":-1}`, "max_cycles"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(c.doc))
			if err == nil {
				t.Fatalf("expected an error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestParseRefusesModelConstants: a document naming a leaf that became a model
// constant is refused, with the key named, even at the value the model now
// fixes — strict decoding refuses it instead of silently ignoring it. The
// ideal section went whole, so its name is the refused key. The correction
// loop's damping and constant seed were deleted outright (every round feeds
// its measurements back verbatim), and are refused the same way.
func TestParseRefusesModelConstants(t *testing.T) {
	for _, c := range []struct{ section, key, value string }{
		{"system", "l1_sets", "64"},
		{"system", "l1_ways", "4"},
		{"system", "l1_line_bytes", "64"},
		{"system", "l2_hit_cycles", "6"},
		{"system", "mem_cycles", "120"},
		{"system", "ctrl_bytes", "8"},
		{"system", "data_bytes", "72"},
		{"mesh", "buf_depth", "4"},
		{"mesh", "flit_bytes", "16"},
		{"mesh", "router_stages", "2"},
		{"mesh", "link_cycles", "1"},
		{"mesh", "clock_ghz", "2"},
		{"optical", "gbps_per_wavelength", "10"},
		{"optical", "clock_ghz", "2"},
		{"optical", "token_hop_cycles", "1"},
		{"optical", "propagation_cycles_across", "8"},
		{"optical", "oe_overhead_cycles", "3"},
		{"optical", "max_token_hold", "4"},
		{"optical", "die_edge_cm", "2"},
		{"ideal", "latency_cycles", "20"},
		{"ideal", "bytes_per_cycle", "16"},
		{"sctm", "damping", "0"},
		{"sctm", "initial_latency_cycles", "0"},
	} {
		t.Run(c.section+"."+c.key, func(t *testing.T) {
			named := c.key
			if c.section == "ideal" {
				named = c.section
			}
			_, err := Parse([]byte(fmt.Sprintf(`{%q:{%q:%s}}`, c.section, c.key, c.value)))
			if err == nil || !strings.Contains(err.Error(), strconv.Quote(named)) {
				t.Fatalf("error %v does not name %q", err, named)
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
	got, err := Parse([]byte(`{"name":"x","system":{"cores":16,"l2_sets_per_bank":256,"l2_ways":8}}`))
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
