package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"strings"
	"testing"

	"onocsim"
	"onocsim/internal/config"
	"onocsim/internal/sweep"
)

// tinySweep is a 4-arm grid whose two electrical arms collapse to one unique
// job (the mesh observes neither wavelengths nor optical faults), so the
// envelope's accounting proves fingerprint-level dedup inside one request.
const tinySweep = `{"name":"tiny","networks":["electrical","optical"],"cores":[16],"wavelengths":[4,16],"faults":["off"],"kernels":["stencil"],"quick":true}`

// sweepDoc is a /v1/sweeps reply as a client sees it: the request metadata,
// the sweep member's raw bytes, and those bytes decoded.
type sweepDoc struct {
	Version int             `json:"version"`
	Status  string          `json:"status"`
	Raw     json.RawMessage `json:"sweep"`
	Sweep   sweep.Result    `json:"-"`
}

func postSweep(t *testing.T, ts string, body string) sweepDoc {
	t.Helper()
	code, raw := postJSON(t, ts+"/v1/sweeps", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	var doc sweepDoc
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(doc.Raw, &doc.Sweep); err != nil {
		t.Fatal(err)
	}
	return doc
}

// The sweep endpoint collapses identity-equal arms inside a request, serves
// a repeated request entirely from the session memo (zero new computations),
// and its reply's sweep member is the exact document the in-process pipeline
// — and hence the CLI — marshals for the same spec: a sweep has one wire form.
func TestSweepDedupAndCLIParity(t *testing.T) {
	_, ts := newTestServer(t)
	doc := postSweep(t, ts.URL, tinySweep)
	env := doc.Sweep
	if doc.Version != ResponseVersion || doc.Status != "ok" || env.Name != "tiny" {
		t.Fatalf("bad reply: %+v", doc)
	}
	if env.Arms != 4 || env.UniqueJobs != 3 {
		t.Fatalf("dedup accounting: %d arms -> %d unique jobs, want 4 -> 3", env.Arms, env.UniqueJobs)
	}
	if env.Simulated != env.UniqueJobs-env.Pruned {
		t.Fatalf("accounting broken: %d simulated, %d unique - %d pruned", env.Simulated, env.UniqueJobs, env.Pruned)
	}

	// A second identical POST reuses every arm's memoized result: the
	// session computes nothing new, and the tables are byte-identical.
	misses := serverStats(t, ts).Cache.Misses
	again := postSweep(t, ts.URL, tinySweep)
	if got := serverStats(t, ts).Cache.Misses; got != misses {
		t.Fatalf("repeated sweep recomputed: misses %d -> %d", misses, got)
	}
	if !bytes.Equal(doc.Raw, again.Raw) {
		t.Fatalf("repeated sweep changed its document:\n%s\nvs\n%s", doc.Raw, again.Raw)
	}

	// Parity with the in-process pipeline on a fresh session (the CLI path):
	// the reply embeds the document sweep.Result marshals to.
	spec, err := config.ParseSweep([]byte(tinySweep))
	if err != nil {
		t.Fatal(err)
	}
	res, err := sweep.Run(context.Background(), spec, sweep.Options{Session: onocsim.NewSession("")})
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, doc.Raw) {
		t.Fatalf("service sweep diverged from the pipeline's:\n%s\nvs\n%s", doc.Raw, want)
	}
}

// An empty body runs the built-in default grid; a bad spec is a 400.
func TestSweepSpecValidation(t *testing.T) {
	_, ts := newTestServer(t)
	for _, spec := range []string{`{"cores":[7]}`, `{"cores":[16384]}`} {
		if code, body := postJSON(t, ts.URL+"/v1/sweeps", spec); code != http.StatusBadRequest {
			t.Fatalf("invalid spec %s: status %d: %s", spec, code, body)
		}
	}
	code, body := postJSON(t, ts.URL+"/v1/sweeps", `{"unknown_axis":[1]}`)
	if code != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d: %s", code, body)
	}
	code, body = postJSON(t, ts.URL+"/v1/sweeps", tinySweep+"garbage")
	if code != http.StatusBadRequest {
		t.Fatalf("trailing garbage: status %d: %s", code, body)
	}
}

// Axis values may repeat, so a body well under the 1 MiB cap can name a grid
// of any size: three axes of 400 duplicated values are 64 million arms in
// under 4 KB. The expanded grid is capped, and the refusal is a 400 before
// any arm is built.
func TestSweepRejectsOversizedGrid(t *testing.T) {
	_, ts := newTestServer(t)
	axis := func(v string) string { return "[" + strings.TrimSuffix(strings.Repeat(v+",", 400), ",") + "]" }
	spec := `{"networks":["optical"],"cores":` + axis("16") + `,"wavelengths":` + axis("4") +
		`,"faults":["off"],"kernels":` + axis(`"stencil"`) + `,"quick":true}`
	code, body := postJSON(t, ts.URL+"/v1/sweeps", spec)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "arms") {
		t.Fatalf("%d-byte spec of 400^3 arms: status %d: %s", len(spec), code, body)
	}
}
