package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"onocsim"
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

// For every op, the repeat of a request is answered from the reply memo with
// the bytes the first answer had (bar the digits of elapsed_ms), and costs
// neither a session-cache lookup nor an admission.
func TestMemoHitRepliesTheMissBytes(t *testing.T) {
	_, ts := newTestServer(t)
	for i, op := range []string{"exec", "study", "correct", "estimate"} {
		code, miss := postJSON(t, ts.URL+"/v1/simulate", smallSim(op))
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", op, code, miss)
		}
		before := serverStats(t, ts)
		if before.Replies.Entries != i+1 || before.Replies.Hits != uint64(i) {
			t.Fatalf("%s: after the first sighting: %+v", op, before.Replies)
		}
		code, hit := postJSON(t, ts.URL+"/v1/simulate", smallSim(op))
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

// An SSE client posting memoised bytes gets the stored envelope as its result
// event.
func TestMemoHitOverSSE(t *testing.T) {
	srv, ts := newTestServer(t)
	code, plain := postJSON(t, ts.URL+"/v1/simulate", smallSim("exec"))
	if code != http.StatusOK {
		t.Fatalf("status %d: %s", code, plain)
	}
	resp, err := http.Post(ts.URL+"/v1/simulate?stream=sse", "application/json", strings.NewReader(smallSim("exec")))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type %q", ct)
	}
	events := readSSE(t, resp)
	if len(events) != 1 || events[0].event != "result" {
		t.Fatalf("memoised stream is not one result event: %+v", events)
	}
	var streamed, want resultEnvelope
	if err := json.Unmarshal(events[0].data, &streamed); err != nil {
		t.Fatalf("result event is not an envelope: %v: %s", err, events[0].data)
	}
	if err := json.Unmarshal(plain, &want); err != nil {
		t.Fatal(err)
	}
	if streamed.Status != "ok" || streamed.Fingerprint != want.Fingerprint || !bytes.Equal(streamed.Table, want.Table) {
		t.Fatalf("streamed envelope differs from the plain one:\n%s\nvs\n%s", events[0].data, plain)
	}
	if st := srv.replies.stats(); st.Hits != 1 {
		t.Fatalf("streamed repeat was not a memo hit: %+v", st)
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
		return work{onocsim.SlotHeavy, onocsim.SlotHeavy.Units(), func(context.Context) (any, error) {
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
	m.put(key(-1), resultEnvelope{Op: "hot"})
	for i := 0; i < 3*replyMemoCap; i++ {
		if env, ok := m.get(key(-1)); !ok || env.Op != "hot" {
			t.Fatalf("hot entry evicted after %d never-seen bodies", i)
		}
		m.put(key(i), resultEnvelope{Op: "cold"})
	}
	if st := m.stats(); st.Entries != replyMemoCap || st.Evicted != 2*replyMemoCap+1 {
		t.Fatalf("after 3 caps of never-seen bodies: %+v", st)
	}
}

// The warm path's allocation gate: a memo hit through the handler (no socket)
// reads the body, builds the reply closure and encodes the envelope. The old
// hit path cost ~440 allocations here; anything re-decoding, re-fingerprinting
// or re-rendering on a hit trips this.
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
	if allocs > 32 {
		t.Errorf("memo hit allocates %.0f times per request, want <= 32", allocs)
	}
}
