package service

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"onocsim"
	"onocsim/internal/experiments"
)

// smallSim is a fast /v1/simulate body for op on the optical fabric.
func smallSim(op string) string {
	return fmt.Sprintf(`{"op":%q,"network":"optical","config":{
		"system":{"cores":16},
		"workload":{"kernel":"stencil","scale":4,"iterations":2},
		"max_cycles":5000000}}`, op)
}

// slowCorrection is a correct job with a wide window to park in. At tolerance
// zero the ten-sweep stencil walks 371 rounds to its exact fixpoint (≈0.7 s
// on a 2-vCPU host): a wide, deterministic window of round boundaries for a
// park to land on, even on a fast host where each round takes a few
// milliseconds and the test polls over HTTP.
const slowCorrection = `{"op":"correct","network":"optical","config":{
	"system":{"cores":16},
	"workload":{"kernel":"stencil","scale":4,"iterations":10},
	"sctm":{"max_iterations":1000,"tolerance_cycles":0,"makespan_tolerance":0},
	"max_cycles":5000000}}`

// awaitRound blocks until a correction round is replaying. The loop checks its
// context before each round, so a cancellation from then on parks the run with
// at least that round done; one that lands before round 0's check (as soon as
// the flight's cache miss shows, say) parks it with none, which is an error.
func awaitRound(t *testing.T) {
	t.Helper()
	buf := make([]byte, 1<<20)
	deadline := time.Now().Add(30 * time.Second)
	for !bytes.Contains(buf[:runtime.Stack(buf, true)], []byte("onocsim/internal/core.(*replayer).run(")) {
		if time.Now().After(deadline) {
			t.Fatal("no correction round started")
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func newTestServer(t *testing.T) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(Config{Quick: true})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return srv, ts
}

func postJSON(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, buf.Bytes()
}

func serverStats(t *testing.T, ts *httptest.Server) statsResponse {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st statsResponse
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	return st
}

// hostTimeCell matches a table's duration cell: the exec, correct and
// estimate tables report the host time of each request's own job, the one
// cell two answers to the same document differ in.
var hostTimeCell = regexp.MustCompile(`"kind":"duration"(,"int":[0-9]+)?`)

// The tentpole's acceptance test: N clients POST the same config
// concurrently; the daemon runs the simulation exactly once (single-flight
// across HTTP) and every client receives the same versioned result, byte for
// byte apart from its own job's host time.
func TestSimulateConcurrentDedup(t *testing.T) {
	_, ts := newTestServer(t)
	const n = 8
	bodies := make([][]byte, n)
	codes := make([]int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			codes[i], bodies[i] = postJSON(t, ts.URL+"/v1/simulate", smallSim("exec"))
		}()
	}
	wg.Wait()
	// Every client gets the same versioned result document; elapsed_ms and
	// the host-time cell are per-request, the rest of the table is identical.
	var env resultEnvelope
	if err := json.Unmarshal(bodies[0], &env); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if codes[i] != http.StatusOK {
			t.Fatalf("client %d: status %d: %s", i, codes[i], bodies[i])
		}
		var got resultEnvelope
		if err := json.Unmarshal(bodies[i], &got); err != nil {
			t.Fatal(err)
		}
		if got.Fingerprint != env.Fingerprint || got.Status != env.Status ||
			!bytes.Equal(hostTimeCell.ReplaceAll(got.Table, nil), hostTimeCell.ReplaceAll(env.Table, nil)) {
			t.Fatalf("client %d received a different result:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	if env.Version != ResponseVersion || env.Status != "ok" || env.Op != "exec" || env.Fingerprint == "" {
		t.Fatalf("bad envelope: %+v", env)
	}
	st := serverStats(t, ts)
	if st.Cache.Misses != 1 {
		t.Fatalf("computed %d times for %d identical requests, want exactly 1", st.Cache.Misses, n)
	}
	// Each of the other n-1 was absorbed by exactly one layer: it joined the
	// flight, hit the session cache after it settled, or — arriving after the
	// first reply was stored — hit the reply memo and never reached the session.
	if got := st.Cache.Hits + st.Cache.Waits + st.Replies.Hits; got != n-1 {
		t.Fatalf("%d of %d requests deduplicated: %+v %+v", got, n-1, st.Cache, st.Replies)
	}
	if st.Requests < n {
		t.Fatalf("request counter %d < %d", st.Requests, n)
	}
}

// A repeated request after the flight settles is a pure cache hit and still
// returns the identical document.
func TestSimulateRepeatHitsCache(t *testing.T) {
	_, ts := newTestServer(t)
	code, first := postJSON(t, ts.URL+"/v1/simulate", smallSim("estimate"))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, first)
	}
	misses := serverStats(t, ts).Cache.Misses
	code, second := postJSON(t, ts.URL+"/v1/simulate", smallSim("estimate"))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, second)
	}
	var a, b resultEnvelope
	if err := json.Unmarshal(first, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(second, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Table, b.Table) {
		t.Fatalf("cached result differs:\n%s\nvs\n%s", a.Table, b.Table)
	}
	if got := serverStats(t, ts).Cache.Misses; got != misses {
		t.Fatalf("repeat request recomputed: misses %d -> %d", misses, got)
	}
}

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	event string
	data  []byte
}

// readSSE consumes a text/event-stream body into parsed events.
func readSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" {
				out = append(out, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "event: "):
			cur.event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			cur.data = append(cur.data, strings.TrimPrefix(line, "data: ")...)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestSimulateSSEStreamsProgressThenResult(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/simulate?stream=sse", "application/json", strings.NewReader(smallSim("exec")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := readSSE(t, resp)
	if len(events) == 0 {
		t.Fatal("empty event stream")
	}
	last := events[len(events)-1]
	if last.event != "result" {
		t.Fatalf("stream did not end with a result event: %+v", last)
	}
	var env resultEnvelope
	if err := json.Unmarshal(last.data, &env); err != nil {
		t.Fatal(err)
	}
	if env.Status != "ok" || env.Version != ResponseVersion {
		t.Fatalf("bad streamed envelope: %+v", env)
	}
	sawProgress := false
	for _, ev := range events[:len(events)-1] {
		if ev.event != "progress" {
			t.Fatalf("unexpected event %q before result", ev.event)
		}
		var we wireEvent
		if err := json.Unmarshal(ev.data, &we); err != nil {
			t.Fatalf("bad progress payload %s: %v", ev.data, err)
		}
		if we.Kind == "computed" {
			sawProgress = true
		}
	}
	if !sawProgress {
		t.Fatal("no computed progress event streamed for a fresh simulation")
	}
	// The streamed result table is byte-identical to the plain-JSON one.
	_, plain := postJSON(t, ts.URL+"/v1/simulate", smallSim("exec"))
	var plainEnv resultEnvelope
	if err := json.Unmarshal(plain, &plainEnv); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env.Table, plainEnv.Table) {
		t.Fatalf("streamed table differs from plain table:\n%s\nvs\n%s", env.Table, plainEnv.Table)
	}
}

func TestSimulateRejectsBadRequests(t *testing.T) {
	_, ts := newTestServer(t)
	for _, tc := range []struct {
		name, body string
	}{
		{"bad op", `{"op":"teleport"}`},
		{"bad network", `{"op":"exec","network":"quantum"}`},
		{"unknown config field", `{"op":"exec","config":{"warp_factor":9}}`},
		{"invalid config", `{"op":"exec","config":{"system":{"cores":7}}}`},
		{"cores above MaxCores", `{"op":"exec","config":{"system":{"cores":16384}}}`},
		{"malformed json", `{"op":`},
		{"trailing garbage", `{"op":"exec"}garbage`},
		{"second value", `{"op":"exec"}{"op":"exec"}`},
		{"trailing garbage in config", `{"op":"exec","config":{"seed":7}garbage}`},
	} {
		code, body := postJSON(t, ts.URL+"/v1/simulate", tc.body)
		if code != http.StatusBadRequest {
			t.Errorf("%s: status %d (want 400): %s", tc.name, code, body)
		}
	}
}

// TestSimulateRefusesModelConstants posts the baseline document as
// `onocsim -dump-config` printed it while the model constants were still
// options (testdata/dump-config-v1.json): the daemon answers 400 and names
// the first such key, rather than run the job with those values ignored.
func TestSimulateRefusesModelConstants(t *testing.T) {
	_, ts := newTestServer(t)
	doc, err := os.ReadFile("testdata/dump-config-v1.json")
	if err != nil {
		t.Fatal(err)
	}
	code, body := postJSON(t, ts.URL+"/v1/simulate", `{"op":"exec","config":`+string(doc)+`}`)
	if code != http.StatusBadRequest || !strings.Contains(string(body), "l1_sets") {
		t.Fatalf("status %d (want 400 naming l1_sets): %s", code, body)
	}
	// The correction loop's deleted knobs are refused the same way.
	for key, sctm := range map[string]string{
		"damping":                `{"damping":0}`,
		"initial_latency_cycles": `{"initial_latency_cycles":0}`,
		"sctm.seed":              `{"seed":"fixed"}`,
	} {
		code, body := postJSON(t, ts.URL+"/v1/simulate", `{"op":"exec","config":{"sctm":`+sctm+`}}`)
		if code != http.StatusBadRequest || !strings.Contains(string(body), key) {
			t.Errorf("status %d (want 400 naming %s): %s", code, key, body)
		}
	}
}

func TestExperimentEndpoints(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Version     int              `json:"version"`
		Experiments []experimentInfo `json:"experiments"`
	}
	err = json.NewDecoder(resp.Body).Decode(&listing)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(listing.Experiments) < 10 {
		t.Fatalf("registry listing too short: %d entries", len(listing.Experiments))
	}
	// r13 is analytic (cost light) — cheap enough to run end to end.
	code, body := postJSON(t, ts.URL+"/v1/experiments/r13", "")
	if code != http.StatusOK {
		t.Fatalf("r13: status %d: %s", code, body)
	}
	var env resultEnvelope
	if err := json.Unmarshal(body, &env); err != nil {
		t.Fatal(err)
	}
	if env.Op != "experiment:r13" || env.Status != "ok" || len(env.Table) == 0 {
		t.Fatalf("bad experiment envelope: %+v", env)
	}
	if code, body := postJSON(t, ts.URL+"/v1/experiments/r999", ""); code != http.StatusNotFound {
		t.Fatalf("unknown experiment: status %d: %s", code, body)
	}
}

// An experiment request runs its leaf simulations under the request's
// context: once the client is gone, the next leaf refuses to queue, the
// experiment fails with the context's error, and the handler returns its
// admission units — it does not keep simulating for nobody. r5 is ten
// sequential execution-driven leaves; the client leaves as soon as the first
// one is computed.
func TestExperimentStopsWhenClientLeaves(t *testing.T) {
	full, _ := newTestServer(t)
	rec := httptest.NewRecorder()
	full.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/experiments/r5", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("uncancelled r5: status %d: %s", rec.Code, rec.Body)
	}
	leaves := full.session.CacheStats().Misses

	srv, _ := newTestServer(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	srv.session.SetProgress(onocsim.ProgressFunc(func(ev onocsim.ProgressEvent) {
		if ev.Kind == onocsim.ProgressSimComputed {
			cancel()
		}
	}))
	rec = httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", "/v1/experiments/r5", nil).WithContext(ctx))
	if rec.Code != http.StatusServiceUnavailable || !strings.Contains(rec.Body.String(), context.Canceled.Error()) {
		t.Fatalf("cancelled r5: status %d: %s", rec.Code, rec.Body)
	}
	// The leaf in flight when the client left was computed; the one after it
	// was refused a slot; nothing else was started, then or later.
	misses := srv.session.CacheStats().Misses
	if misses >= leaves {
		t.Fatalf("experiment simulated on after its client left: %d of %d leaves started", misses, leaves)
	}
	time.Sleep(20 * time.Millisecond)
	if got := srv.session.CacheStats().Misses; got != misses {
		t.Fatalf("leaves still starting after the handler returned: %d -> %d", misses, got)
	}
	if st := srv.sched.Stats(); st.InUse != 0 || st.Admitted != 1 {
		t.Fatalf("admission units not returned: %+v", st)
	}

	// The same holds one level down, where the error is still a value.
	if _, err := experiments.ByName(ctx, "r6", experiments.Options{Session: srv.session, Quick: true}); !errors.Is(err, context.Canceled) {
		t.Fatalf("experiment under a cancelled context returned %v", err)
	}
}

// A computation that panics outside any cache flight costs its own request a
// 500 — or, under SSE, where the computation runs on a goroutine net/http does
// not guard and an unrecovered panic ends the process, an error event — and
// nothing else: the daemon serves the next request, the admission units come
// back, and /v1/stats counts both.
func TestPanickingComputeLeavesTheDaemonServing(t *testing.T) {
	srv, ts := newTestServer(t)
	// One more POST on the one pipeline every endpoint runs through: a
	// medium-class request whose computation panics.
	srv.mux.HandleFunc("POST /v1/panic", srv.post(func(http.ResponseWriter, *http.Request) (work, error) {
		return work{onocsim.SlotMedium, onocsim.SlotMedium.Units(), func(context.Context) (any, error) {
			panic("render blew up")
		}}, nil
	}))

	code, body := postJSON(t, ts.URL+"/v1/panic", "")
	if code != http.StatusInternalServerError || !strings.Contains(string(body), "render blew up") {
		t.Fatalf("plain: status %d: %s", code, body)
	}

	req, err := http.NewRequest("POST", ts.URL+"/v1/panic", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	events := readSSE(t, resp)
	resp.Body.Close()
	if len(events) == 0 {
		t.Fatal("sse: empty event stream")
	}
	if last := events[len(events)-1]; last.event != "error" || !strings.Contains(string(last.data), "render blew up") {
		t.Fatalf("sse: stream ended with %q %s, want an error event", last.event, last.data)
	}

	if code, body := postJSON(t, ts.URL+"/v1/experiments/r13", ""); code != http.StatusOK {
		t.Fatalf("request after the panics: status %d: %s", code, body)
	}
	if st := serverStats(t, ts); st.Panics != 2 || st.Scheduler.InUse != 0 {
		t.Fatalf("after two panics: panics = %d, admission units in use = %d", st.Panics, st.Scheduler.InUse)
	}
}

// Draining refuses new work with 503 and parks an in-flight self-correction
// at a round boundary: the client still gets a valid partial result, marked
// status "parked".
func TestDrainParksInFlightCorrection(t *testing.T) {
	srv, ts := newTestServer(t)
	resp, err := http.Post(ts.URL+"/v1/simulate?stream=sse", "application/json", strings.NewReader(slowCorrection))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()

	// Stream while the correction runs; drain mid-loop.
	type result struct {
		env resultEnvelope
		evs []sseEvent
	}
	resc := make(chan result, 1)
	go func() {
		evs := readSSE(t, resp)
		var r result
		r.evs = evs
		if len(evs) > 0 && evs[len(evs)-1].event == "result" {
			_ = json.Unmarshal(evs[len(evs)-1].data, &r.env)
		}
		resc <- r
	}()
	awaitRound(t)
	srv.Drain()

	// New work is refused while draining.
	if code, b := postJSON(t, ts.URL+"/v1/simulate", smallSim("exec")); code != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted new work: %d %s", code, b)
	}

	r := <-resc
	if len(r.evs) == 0 || r.evs[len(r.evs)-1].event != "result" {
		t.Fatalf("stream did not end in a result: %+v", r.evs)
	}
	if r.env.Status != "parked" {
		t.Fatalf("in-flight correction not parked: %+v", r.env)
	}
	if len(r.env.Table) == 0 {
		t.Fatal("parked result carries no table")
	}
}
