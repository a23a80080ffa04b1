package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"onocsim"
	"onocsim/internal/cliutil"
	"onocsim/internal/metrics"
	"onocsim/internal/service"
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
		if err := run(io.Discard, opts(smallCfgFile(t), network, "exec", "ascii")); err != nil {
			t.Fatalf("exec on %s: %v", network, err)
		}
	}
}

func TestRunExecModeFaulted(t *testing.T) {
	for _, preset := range []string{"light", "heavy"} {
		o := opts(smallCfgFile(t), "optical", "exec", "ascii")
		o.faults = preset
		if err := run(io.Discard, o); err != nil {
			t.Fatalf("faulted exec (%s): %v", preset, err)
		}
	}
}

func TestRunStudyMode(t *testing.T) {
	if err := run(io.Discard, opts(smallCfgFile(t), "optical", "study", "ascii")); err != nil {
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
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
}

func TestRunStudyModeIncremental(t *testing.T) {
	o := opts(smallCfgFile(t), "optical", "study", "ascii")
	o.incr = true
	if err := run(io.Discard, o); err != nil {
		t.Fatal(err)
	}
}

// The two job-pipeline modes the CLI gained with the unified pipeline: a
// correction run and its closed-form estimate.
func TestRunCorrectAndEstimateModes(t *testing.T) {
	cfgPath := smallCfgFile(t)
	for _, mode := range []string{"correct", "estimate"} {
		if err := run(io.Discard, opts(cfgPath, "optical", mode, "ascii")); err != nil {
			t.Fatalf("%s: %v", mode, err)
		}
	}
}

func TestRunJSONFormats(t *testing.T) {
	cfgPath := smallCfgFile(t)
	if err := run(io.Discard, opts(cfgPath, "optical", "exec", "json")); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, opts(cfgPath, "optical", "study", "json")); err != nil {
		t.Fatal(err)
	}
	if err := run(io.Discard, opts(cfgPath, "optical", "exec", "yaml")); err == nil {
		t.Fatal("unknown format accepted")
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
		{"unknown mode", run(io.Discard, opts(cfgPath, "optical", "teleport", "ascii")), 2},
		{"sweep is not a mode", run(io.Discard, opts(cfgPath, "", "sweep", "ascii")), 2},
		{"unknown network", run(io.Discard, opts(cfgPath, "warp", "exec", "ascii")), 2},
		{"unknown format", run(io.Discard, opts(cfgPath, "optical", "exec", "yaml")), 2},
		{"unknown faults preset", run(io.Discard, badFaults), 2},
		{"unknown seed mode", run(io.Discard, badSeed), 1},
		{"missing config", run(io.Discard, opts(filepath.Join(t.TempDir(), "nope.json"), "optical", "exec", "ascii")), 1},
	}
	for _, tc := range cases {
		if tc.err == nil {
			t.Fatalf("%s: accepted", tc.name)
		}
		if got := cliutil.ExitCode(tc.err); got != tc.want {
			t.Errorf("%s: exit code %d, want %d (err: %v)", tc.name, got, tc.want, tc.err)
		}
		if tc.name == "sweep is not a mode" && !strings.Contains(tc.err.Error(), "expreport -sweep") {
			t.Errorf("%s: the error does not name the door that runs one: %v", tc.name, tc.err)
		}
	}
}

// maskedTable decodes a table's JSON and re-encodes it with its host-time
// cells blanked: the one thing two computations of the same result differ in.
func maskedTable(t *testing.T, data []byte) string {
	t.Helper()
	var in metrics.Table
	if err := json.Unmarshal(data, &in); err != nil {
		t.Fatalf("%v in %s", err, data)
	}
	out := metrics.NewTable(in.Title, in.Columns...)
	for r := 0; r < in.NumRows(); r++ {
		row := make([]metrics.Cell, len(in.Columns))
		for c := range row {
			if row[c] = in.At(r, c); row[c].Kind == metrics.KindDuration {
				row[c] = metrics.String("MASKED")
			}
		}
		out.AddCells(row...)
	}
	for _, n := range in.Notes() {
		out.Note("%s", n)
	}
	enc, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	return string(enc)
}

// The CLI and the daemon are two doors to one job: the same config document —
// here one whose own network is electrical — must get the same table from
// `onocsim -format json` and from the `table` of POST /v1/simulate, when
// neither side names a network (the document's own runs) and when both name
// the same override. Both build their job with job.New, which is what this
// pins: the CLI used to overwrite the document's network with its flag
// default and answer for the optical fabric.
func TestCLIAndDaemonAnswerOneDocumentAlike(t *testing.T) {
	cfgPath := smallCfgFile(t)
	doc, err := os.ReadFile(cfgPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(doc, []byte(`"network": "electrical"`)) {
		t.Fatalf("the document's own network is not electrical:\n%s", doc)
	}
	ts := httptest.NewServer(service.New(service.Config{}).Handler())
	defer ts.Close()
	for _, network := range []string{"", "optical"} {
		for _, op := range []string{"exec", "correct", "estimate"} {
			var cli bytes.Buffer
			if err := run(&cli, opts(cfgPath, network, op, "json")); err != nil {
				t.Fatalf("%s/%q: cli: %v", op, network, err)
			}
			body := fmt.Sprintf(`{"op":%q,"network":%q,"config":%s}`, op, network, doc)
			resp, err := http.Post(ts.URL+"/v1/simulate", "application/json", strings.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			var reply struct {
				Network string          `json:"network"`
				Table   json.RawMessage `json:"table"`
			}
			err = json.NewDecoder(resp.Body).Decode(&reply)
			resp.Body.Close()
			if err != nil || resp.StatusCode != http.StatusOK {
				t.Fatalf("%s/%q: daemon: status %d, %v", op, network, resp.StatusCode, err)
			}
			if want := map[string]string{"": "electrical", "optical": "optical"}[network]; reply.Network != want {
				t.Errorf("%s/%q: daemon ran on %s, want %s", op, network, reply.Network, want)
			}
			if got, want := maskedTable(t, cli.Bytes()), maskedTable(t, reply.Table); got != want {
				t.Errorf("%s/%q: the two doors disagree\n   cli: %s\ndaemon: %s", op, network, got, want)
			}
		}
	}
}
