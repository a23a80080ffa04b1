package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"testing"

	"onocsim"
)

// A correct job naming a stored trace file streams it instead of capturing
// the config's kernel, and repeats key on the file's content digest — the
// service-side surface of the out-of-core trace layer.
func TestSimulateStreamsStoredTrace(t *testing.T) {
	cfg := onocsim.DefaultConfig()
	cfg.System.Cores = 16
	cfg.Workload.Scale = 4
	cfg.Workload.Iterations = 2
	tr, _, err := onocsim.CaptureTraceContext(context.Background(), cfg, onocsim.IdealNet)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "tenant.sctm")
	if err := onocsim.SaveTrace(path, tr); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t)
	body := fmt.Sprintf(`{"op":"correct","network":"optical","trace":%q,"config":{
		"system":{"cores":16},
		"workload":{"kernel":"stencil","scale":4,"iterations":2},
		"max_cycles":5000000}}`, path)
	code, raw := postJSON(t, ts.URL+"/v1/simulate", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, raw)
	}
	var env resultEnvelope
	if err := json.Unmarshal(raw, &env); err != nil {
		t.Fatal(err)
	}
	if env.Status != "ok" || len(env.Table) == 0 {
		t.Fatalf("bad envelope: %+v", env)
	}

	// The repeat is a digest-keyed cache hit: nothing recomputes.
	misses := serverStats(t, ts).Cache.Misses
	code, raw2 := postJSON(t, ts.URL+"/v1/simulate", body)
	if code != http.StatusOK {
		t.Fatalf("repeat status %d: %s", code, raw2)
	}
	if got := serverStats(t, ts).Cache.Misses; got != misses {
		t.Fatalf("repeated streamed correct recomputed: misses %d -> %d", misses, got)
	}

	// Every op that reads a trace reads a file, an analytic-seeded correction
	// included; the ops that run the config's kernel refuse one.
	for body, want := range map[string]int{
		`{"op":"estimate","network":"optical","trace":%q,"config":{"system":{"cores":16}}}`:                           http.StatusOK,
		`{"op":"correct","network":"optical","trace":%q,"config":{"system":{"cores":16},"sctm":{"seed":"analytic"}}}`: http.StatusOK,
		`{"op":"exec","network":"optical","trace":%q}`:                                                                http.StatusBadRequest,
		`{"op":"study","network":"optical","trace":%q}`:                                                               http.StatusBadRequest,
	} {
		body := fmt.Sprintf(body, path)
		if code, raw := postJSON(t, ts.URL+"/v1/simulate", body); code != want {
			t.Fatalf("%s: status %d, want %d: %s", body, code, want, raw)
		}
	}
}
