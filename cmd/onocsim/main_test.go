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
	"onocsim/internal/config"
	"onocsim/internal/metrics"
	"onocsim/internal/service"
)

// smallCfgFile writes a fast config, with the edits laid over it, and returns
// its path: what a user does with -dump-config, an editor and -config.
func smallCfgFile(t *testing.T, edits ...func(*onocsim.Config)) string {
	t.Helper()
	cfg := onocsim.DefaultConfig()
	cfg.System.Cores = 16
	cfg.Workload.Scale = 4
	cfg.Workload.Iterations = 2
	for _, edit := range edits {
		edit(&cfg)
	}
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
		path := smallCfgFile(t, func(c *onocsim.Config) { c.Faults = faultPreset(t, preset) })
		if err := run(io.Discard, opts(path, "optical", "exec", "ascii")); err != nil {
			t.Fatalf("faulted exec (%s): %v", preset, err)
		}
	}
}

func faultPreset(t *testing.T, name string) config.Faults {
	t.Helper()
	f, err := config.FaultPreset(name)
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRunStudyMode(t *testing.T) {
	if err := run(io.Discard, opts(smallCfgFile(t), "optical", "study", "ascii")); err != nil {
		t.Fatal(err)
	}
}

func TestRunStudyModeSharded(t *testing.T) {
	path := smallCfgFile(t, func(c *onocsim.Config) { c.Parallelism.Shards = 4 })
	if err := run(io.Discard, opts(path, "optical", "study", "ascii")); err != nil {
		t.Fatal(err)
	}
}

func TestRunStudyModeIncremental(t *testing.T) {
	path := smallCfgFile(t, func(c *onocsim.Config) { c.SCTM.Incremental = true })
	if err := run(io.Discard, opts(path, "optical", "study", "ascii")); err != nil {
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
// missing config file, or a document that does not validate, exit 1.
func TestRunExitCodes(t *testing.T) {
	cfgPath := smallCfgFile(t)
	badSeed := smallCfgFile(t, func(c *onocsim.Config) { c.SCTM.Seed = "entrails" })
	badFaults := smallCfgFile(t, func(c *onocsim.Config) { c.Faults.ThermalMTBF = -1 })
	cases := []struct {
		name string
		err  error
		want int
	}{
		{"unknown mode", run(io.Discard, opts(cfgPath, "optical", "teleport", "ascii")), 2},
		{"sweep is not a mode", run(io.Discard, opts(cfgPath, "", "sweep", "ascii")), 2},
		{"unknown network", run(io.Discard, opts(cfgPath, "warp", "exec", "ascii")), 2},
		{"unknown format", run(io.Discard, opts(cfgPath, "optical", "exec", "yaml")), 2},
		{"invalid faults section", run(io.Discard, opts(badFaults, "optical", "exec", "ascii")), 1},
		{"unknown seed mode", run(io.Discard, opts(badSeed, "optical", "exec", "ascii")), 1},
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
// default and answer for the optical fabric. The second document carries every
// execution detail a flag used to set — a document is the only spelling left,
// and both doors must read all of it.
func TestCLIAndDaemonAnswerOneDocumentAlike(t *testing.T) {
	plain := smallCfgFile(t)
	loaded := smallCfgFile(t, func(c *onocsim.Config) {
		c.Faults = faultPreset(t, "heavy")
		c.SCTM.Seed = "coupled"
		c.SCTM.Incremental = true
		c.Parallelism.Shards = 2
	})
	ts := httptest.NewServer(service.New(service.Config{}).Handler())
	defer ts.Close()
	opticalExec := map[string]string{} // by document: its masked exec table on the optical fabric
	for _, tc := range []struct{ cfgPath, network, ran string }{
		{plain, "", "electrical"},
		{plain, "optical", "optical"},
		{loaded, "optical", "optical"},
	} {
		doc, err := os.ReadFile(tc.cfgPath)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Contains(doc, []byte(`"network": "electrical"`)) {
			t.Fatalf("the document's own network is not electrical:\n%s", doc)
		}
		for _, op := range []string{"exec", "correct", "estimate"} {
			var cli bytes.Buffer
			if err := run(&cli, opts(tc.cfgPath, tc.network, op, "json")); err != nil {
				t.Fatalf("%s/%q: cli: %v", op, tc.network, err)
			}
			body := fmt.Sprintf(`{"op":%q,"network":%q,"config":%s}`, op, tc.network, doc)
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
				t.Fatalf("%s/%q: daemon: status %d, %v", op, tc.network, resp.StatusCode, err)
			}
			if reply.Network != tc.ran {
				t.Errorf("%s/%q: daemon ran on %s, want %s", op, tc.network, reply.Network, tc.ran)
			}
			got, want := maskedTable(t, cli.Bytes()), maskedTable(t, reply.Table)
			if got != want {
				t.Errorf("%s/%q: the two doors disagree\n   cli: %s\ndaemon: %s", op, tc.network, got, want)
			}
			if op == "exec" && tc.network == "optical" {
				opticalExec[tc.cfgPath] = got
			}
		}
	}
	// The loaded document's faults must have reached the fabric: a door that
	// dropped the section would still agree with the other one that did.
	if opticalExec[plain] == opticalExec[loaded] {
		t.Error("the heavy-faults document ran like the fault-free one")
	}
}
