package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"onocsim"
	"onocsim/internal/metrics"
)

var elapsedDigits = regexp.MustCompile(`"elapsed_ms":[0-9]+`)

// maskElapsed blanks the one member two replies to the same bytes differ in.
func maskElapsed(reply []byte) []byte {
	return elapsedDigits.ReplaceAll(reply, []byte(`"elapsed_ms":_`))
}

// serveInProcess runs one POST /v1/simulate through the handler, no socket.
func serveInProcess(srv *Server, ctx context.Context, target, body string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	srv.Handler().ServeHTTP(rec, httptest.NewRequest("POST", target, strings.NewReader(body)).WithContext(ctx))
	return rec
}

// postSized is postJSON for a reply that must declare its length: the body
// read through the socket is exactly Content-Length bytes.
func postSized(t *testing.T, url, body string) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading a reply of Content-Length %d: %v", resp.ContentLength, err)
	}
	if resp.ContentLength != int64(len(data)) {
		t.Fatalf("Content-Length %d, body %d bytes", resp.ContentLength, len(data))
	}
	return resp.StatusCode, data
}

// For every op, the repeat of a request is answered from the reply memo with
// the bytes the first answer had (bar the digits of elapsed_ms), and costs
// neither a session-cache lookup nor an admission. Both replies declare their
// length.
func TestMemoHitRepliesTheMissBytes(t *testing.T) {
	_, ts := newTestServer(t)
	for i, op := range []string{"exec", "study", "correct", "estimate"} {
		code, miss := postSized(t, ts.URL+"/v1/simulate", smallSim(op))
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", op, code, miss)
		}
		before := serverStats(t, ts)
		if before.Replies.Entries != i+1 || before.Replies.Hits != uint64(i) {
			t.Fatalf("%s: after the first sighting: %+v", op, before.Replies)
		}
		code, hit := postSized(t, ts.URL+"/v1/simulate", smallSim(op))
		if code != http.StatusOK {
			t.Fatalf("%s repeat: status %d: %s", op, code, hit)
		}
		if !bytes.Equal(maskElapsed(miss), maskElapsed(hit)) {
			t.Fatalf("%s: memoised reply differs from the computed one:\n%s\nvs\n%s", op, hit, miss)
		}
		after := serverStats(t, ts)
		if after.Replies.Hits != uint64(i+1) || after.Replies.Entries != i+1 {
			t.Fatalf("%s: repeat was not a memo hit: %+v", op, after.Replies)
		}
		if after.Cache != before.Cache || after.Scheduler.Admitted != before.Scheduler.Admitted {
			t.Fatalf("%s: memo hit touched the session cache or the scheduler:\n%+v %+v\nvs\n%+v %+v",
				op, after.Cache, after.Scheduler, before.Cache, before.Scheduler)
		}
	}
}

// A request naming a trace file is never memoised: the same bytes name a
// different simulation once the file is rewritten in place.
func TestMemoSkipsTraceRequests(t *testing.T) {
	path := filepath.Join(t.TempDir(), "tenant.sctm")
	writeTrace := func(iterations int) {
		cfg := onocsim.DefaultConfig()
		cfg.System.Cores = 16
		cfg.Workload.Scale = 4
		cfg.Workload.Iterations = iterations
		tr, _, err := onocsim.CaptureTraceContext(context.Background(), cfg, onocsim.IdealNet)
		if err != nil {
			t.Fatal(err)
		}
		if err := onocsim.SaveTrace(path, tr); err != nil { // truncates in place
			t.Fatal(err)
		}
	}
	_, ts := newTestServer(t)
	body := fmt.Sprintf(`{"op":"correct","network":"optical","trace":%q,"config":{
		"system":{"cores":16},
		"workload":{"kernel":"stencil","scale":4,"iterations":2},
		"max_cycles":5000000}}`, path)

	writeTrace(2)
	code, first := postJSON(t, ts.URL+"/v1/simulate", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, first)
	}
	writeTrace(3)
	code, second := postJSON(t, ts.URL+"/v1/simulate", body)
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, second)
	}
	if bytes.Equal(maskElapsed(first), maskElapsed(second)) {
		t.Fatalf("rewritten trace file got the old answer:\n%s", second)
	}
	if st := serverStats(t, ts).Replies; st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("trace request reached the reply memo: %+v", st)
	}
}

// Only a finished answer is stored: a 400 is re-derived (and stays a 400) on
// repeat, and a parked partial result is recomputed, not replayed.
func TestMemoStoresOnlyFinishedAnswers(t *testing.T) {
	srv, ts := newTestServer(t)
	for i := 0; i < 2; i++ {
		if code, body := postJSON(t, ts.URL+"/v1/simulate", `{"op":"teleport"}`); code != http.StatusBadRequest {
			t.Fatalf("bad request, attempt %d: status %d: %s", i, code, body)
		}
	}
	if st := srv.replies.stats(); st.Entries != 0 || st.Hits != 0 {
		t.Fatalf("a 400 reached the reply memo: %+v", st)
	}

	// The long correction, parked by its own client leaving mid-loop.
	body := slowCorrection
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	parked := make(chan *httptest.ResponseRecorder, 1)
	go func() { parked <- serveInProcess(srv, ctx, "/v1/simulate", body) }()
	awaitRound(t)
	cancel()
	var env resultEnvelope
	rec := <-parked
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Status != "parked" {
		t.Fatalf("correction did not park: status %d: %s", rec.Code, rec.Body)
	}
	if st := srv.replies.stats(); st.Entries != 0 {
		t.Fatalf("a parked reply reached the reply memo: %+v", st)
	}
	code, raw := postJSON(t, ts.URL+"/v1/simulate", body)
	if err := json.Unmarshal(raw, &env); err != nil || code != http.StatusOK || env.Status != "ok" {
		t.Fatalf("repeat of a parked request: status %d: %s", code, raw)
	}
	if st := srv.replies.stats(); st.Entries != 1 || st.Hits != 0 {
		t.Fatalf("the finished answer was not stored, or the parked one was replayed: %+v", st)
	}
}

// An SSE client posting memoised bytes gets a stream of exactly one event:
// for every op, byte for byte the result event that closed the stream which
// computed them, bar the digits of elapsed_ms.
func TestMemoHitOverSSE(t *testing.T) {
	srv, ts := newTestServer(t)
	stream := func(op string) *http.Response {
		t.Helper()
		resp, err := http.Post(ts.URL+"/v1/simulate?stream=sse", "application/json", strings.NewReader(smallSim(op)))
		if err != nil {
			t.Fatal(err)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
			t.Fatalf("%s: content type %q", op, ct)
		}
		return resp
	}
	for i, op := range []string{"exec", "study", "correct", "estimate"} {
		resp := stream(op)
		events := readSSE(t, resp)
		resp.Body.Close()
		if len(events) == 0 || events[len(events)-1].event != "result" {
			t.Fatalf("%s: computed stream does not end in a result: %+v", op, events)
		}
		want := "event: result\ndata: " + string(events[len(events)-1].data) + "\n\n"

		resp = stream(op)
		hit, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(maskElapsed(hit), maskElapsed([]byte(want))) {
			t.Fatalf("%s: memoised stream is not the computed result event alone:\n%q\nvs\n%q", op, hit, want)
		}
		if st := srv.replies.stats(); st.Hits != uint64(i+1) {
			t.Fatalf("%s: streamed repeat was not a memo hit: %+v", op, st)
		}
	}
}

// Draining is decided before the body is looked at, memoised or not.
func TestMemoisedBodyGets503WhileDraining(t *testing.T) {
	srv, ts := newTestServer(t)
	if code, body := postJSON(t, ts.URL+"/v1/simulate", smallSim("estimate")); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}
	srv.Drain()
	if code, body := postJSON(t, ts.URL+"/v1/simulate", smallSim("estimate")); code != http.StatusServiceUnavailable {
		t.Fatalf("draining server answered a memoised body: status %d: %s", code, body)
	}
	if st := srv.replies.stats(); st.Hits != 0 {
		t.Fatalf("draining server looked the body up: %+v", st)
	}
}

// A memo hit computes nothing and holds no admission units: it is answered
// while a blocked cold job holds the whole budget, and a first sighting queues.
func TestMemoHitNeedsNoAdmission(t *testing.T) {
	srv := New(Config{Budget: onocsim.SlotHeavy.Units()})
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if code, body := postJSON(t, ts.URL+"/v1/simulate", smallSim("study")); code != http.StatusOK {
		t.Fatalf("status %d: %s", code, body)
	}

	release := make(chan struct{})
	srv.mux.HandleFunc("POST /v1/block", srv.post(func(http.ResponseWriter, *http.Request) (work, error) {
		return work{class: onocsim.SlotHeavy, units: onocsim.SlotHeavy.Units(), run: func(context.Context) (any, error) {
			<-release
			return struct{}{}, nil
		}}, nil
	}))
	blocked := make(chan int, 1)
	go func() { blocked <- serveInProcess(srv, context.Background(), "/v1/block", "").Code }()
	defer func() {
		close(release)
		if code := <-blocked; code != http.StatusOK {
			t.Errorf("blocked job: status %d", code)
		}
	}()
	for deadline := time.Now().Add(10 * time.Second); srv.sched.Stats().InUse < onocsim.SlotHeavy.Units(); {
		if time.Now().After(deadline) {
			t.Fatal("blocking job never admitted")
		}
		time.Sleep(time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if rec := serveInProcess(srv, ctx, "/v1/simulate", smallSim("study")); rec.Code != http.StatusOK {
		t.Fatalf("memoised body behind a full budget: status %d: %s", rec.Code, rec.Body)
	}
	short, cancelShort := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancelShort()
	if rec := serveInProcess(srv, short, "/v1/simulate", smallSim("estimate")); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("first sighting behind a full budget: status %d: %s", rec.Code, rec.Body)
	}
}

// The memo never exceeds its cap: past it, every insertion evicts the
// oldest-inserted entry. The distinct bodies are one request padded with
// whitespace — different bytes, one session-cache entry, so they are cheap.
func TestMemoStaysWithinItsCap(t *testing.T) {
	const extra = 8
	srv, _ := newTestServer(t)
	body := smallSim("estimate")
	for i := 0; i < replyMemoCap+extra; i++ {
		if rec := serveInProcess(srv, context.Background(), "/v1/simulate", body+strings.Repeat(" ", i)); rec.Code != http.StatusOK {
			t.Fatalf("body %d: status %d: %s", i, rec.Code, rec.Body)
		}
	}
	if st := srv.replies.stats(); st.Entries != replyMemoCap || st.Evicted != extra || st.Hits != 0 {
		t.Fatalf("after cap+%d distinct bodies: %+v, want %d entries", extra, st, replyMemoCap)
	}
	// The first body was evicted (a miss again); the newest is still there.
	serveInProcess(srv, context.Background(), "/v1/simulate", body)
	if st := srv.replies.stats(); st.Hits != 0 || st.Entries != replyMemoCap {
		t.Fatalf("the oldest entry survived eviction: %+v", st)
	}
	serveInProcess(srv, context.Background(), "/v1/simulate", body+strings.Repeat(" ", replyMemoCap+extra-1))
	if st := srv.replies.stats(); st.Hits != 1 {
		t.Fatalf("the newest entry was evicted: %+v", st)
	}
}

// A memoised body that keeps being asked for survives any number of never-seen
// bodies: a warm daemon's hot set is not evicted by its cold stream, so its
// repeats keep answering with the bytes of their first reply.
func TestMemoKeepsWhatIsHit(t *testing.T) {
	var m replyMemo
	key := func(i int) replyKey { return sha256.Sum256([]byte(strconv.Itoa(i))) }
	m.put(key(-1), rendered{head: []byte("hot")})
	for i := 0; i < 3*replyMemoCap; i++ {
		if rep, ok := m.get(key(-1)); !ok || string(rep.head) != "hot" {
			t.Fatalf("hot entry evicted after %d never-seen bodies", i)
		}
		m.put(key(i), rendered{head: []byte("cold")})
	}
	if st := m.stats(); st.Entries != replyMemoCap || st.Evicted != 2*replyMemoCap+1 {
		t.Fatalf("after 3 caps of never-seen bodies: %+v", st)
	}
}

// A rendered reply is the encoder's rendering of its envelope: written plain
// it is writeJSON's bytes, and marshalled for an SSE result event it is
// json.Marshal's, HTML escaping and U+2028 included.
func TestRenderedReplyIsTheEncoders(t *testing.T) {
	tab := metrics.NewTable("a<b & c>d", "k\u2028")
	tab.AddRow("x<y")
	tab.Note("p&q")
	rep, err := envelope("exec", "optical", "fp", "ok", 1234*time.Millisecond, tab)
	if err != nil {
		t.Fatal(err)
	}
	var table bytes.Buffer
	if err := tab.WriteJSON(&table); err != nil {
		t.Fatal(err)
	}
	env := resultEnvelope{Version: responseVersion, Fingerprint: "fp", Op: "exec", Network: "optical",
		Status: "ok", ElapsedMS: 1234, Table: table.Bytes()}
	got, want := httptest.NewRecorder(), httptest.NewRecorder()
	rep.write(got)
	writeJSON(want, http.StatusOK, env)
	if !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
		t.Fatalf("written reply:\n%s\nwriteJSON:\n%s", got.Body, want.Body)
	}
	gotSSE, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	wantSSE, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotSSE, wantSSE) {
		t.Fatalf("marshalled reply:\n%s\njson.Marshal:\n%s", gotSSE, wantSSE)
	}
}

// The warm path's allocation gate: a memo hit through the handler (no socket)
// allocates 13 times — the recorder, its header snapshot and its body buffer
// (8), the request body (1), the reply's two headers (3) and its
// Content-Length digits (1) — and nothing for the reply itself, which is
// written from its one rendering. A hit that re-decoded, re-fingerprinted or
// re-rendered cost ~440 allocations here, one that re-encoded its envelope 21.
func TestMemoHitAllocs(t *testing.T) {
	srv, _ := newTestServer(t)
	body := smallSim("study")
	if rec := serveInProcess(srv, context.Background(), "/v1/simulate", body); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body)
	}
	h := srv.Handler()
	rd := strings.NewReader(body)
	req := httptest.NewRequest("POST", "/v1/simulate", rd)
	allocs := testing.AllocsPerRun(200, func() {
		rd.Reset(body)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d", rec.Code)
		}
	})
	t.Logf("memo hit: %.0f allocs/request (recorder included)", allocs)
	if allocs > 15 {
		t.Errorf("memo hit allocates %.0f times per request, want <= 15", allocs)
	}
}
