// Package service implements onocsimd, the simulation-as-a-service daemon:
// a long-lived HTTP server over one shared onocsim.Session. Clients POST
// validated config documents; results are keyed by config fingerprint, so
// identical requests — concurrent or not — share one computation through the
// session's single-flight cache, and repeats are served from the
// content-addressed disk layer. Admission is budgeted by a weighted fair
// scheduler (onocsim.SlotScheduler): each request is priced by its cost
// class, heavy sweeps cannot starve cheap probes, and a client that
// disconnects while queued releases its claim.
//
// Endpoints:
//
//	GET  /healthz               — liveness + drain state
//	GET  /v1/stats              — cache, scheduler, reply-memo and request
//	                              counters
//	GET  /v1/experiments        — the experiment registry
//	POST /v1/experiments/{id}   — run one registry experiment
//	POST /v1/simulate           — run one simulation (op: exec | study |
//	                              correct | estimate)
//	POST /v1/sweeps             — run a design-space sweep (body: a
//	                              config.Sweep spec; empty body sweeps the
//	                              default grid)
//
// A simulate request is one job: the handler builds it with job.New — the
// same call the onocsim CLI makes, which is what keeps the two front ends'
// answers to one document identical — prices it with the job's admission
// class, and executes it through one job.Runner over the shared session. A
// byte-identical repeat of a successful request skips all of that: it is
// answered from a bounded reply memo (replies.go) keyed by the raw body, holds
// no admission units, and is counted under "replies" in /v1/stats rather than
// as a cache hit or an admission. The other two POSTs are the batches, each handled by calling its package on the
// shared session: an experiment (experiments.ByName, admitted at its registry
// cost class) and a sweep (sweep.Run). A sweep expands into many jobs; its
// handler holds no admission units itself — each arm admits individually, so
// a sweep's arms interleave fairly with interactive requests instead of
// reserving the budget up front.
//
// Any POST streams progress as Server-Sent Events when the client asks for
// text/event-stream (Accept header or ?stream=sse): `event: progress` lines
// while simulations resolve, then one `event: result` (or `event: error`).
// Otherwise the response is a single JSON envelope.
//
// Shutdown is graceful: Drain makes new requests 503, then ends the drain
// context merged into every in-flight request, which parks long
// self-correction loops at their next round boundary (onocsim.ErrParked).
// Parked partial results are returned to their clients with status "parked"
// and are never cached.
package service

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"onocsim"
	"onocsim/internal/config"
	"onocsim/internal/experiments"
	"onocsim/internal/job"
	"onocsim/internal/metrics"
	"onocsim/internal/simcache"
	"onocsim/internal/sweep"
)

// responseVersion guards the service's JSON envelopes against schema drift,
// exactly like metrics.TableFormatVersion guards the table payload inside.
const responseVersion = 1

// errDraining is the cancellation cause a draining server injects into
// in-flight request contexts, and the refusal for new work.
var errDraining = errors.New("service: server draining")

// Config configures a Server.
type Config struct {
	// CacheDir optionally enables the session's content-addressed disk
	// layer; "" keeps results in memory only.
	CacheDir string
	// Budget is the admission budget in cost units (light 1, medium 2,
	// heavy 4); <= 0 selects 2×GOMAXPROCS. The budget bounds concurrently
	// admitted requests; within a request, leaf simulations are further
	// bounded by the library's process-wide slot scheduler.
	Budget int
	// Quick shrinks experiment sweeps (experiments.Options.Quick) — meant
	// for tests and load harnesses, not production service.
	Quick bool
}

// Server is the daemon's state: one shared session, one admission scheduler,
// one progress hub. Construct with New; serve via Handler.
type Server struct {
	session *onocsim.Session
	sched   *onocsim.SlotScheduler
	runner  *job.Runner
	hub     *hub
	replies replyMemo
	mux     *http.ServeMux
	quick   bool
	start   time.Time

	drainCtx    context.Context
	drainCancel context.CancelCauseFunc

	mu       sync.Mutex
	draining bool

	requests atomic.Uint64
	panics   atomic.Uint64
}

// New builds a Server over a fresh session.
func New(cfg Config) *Server {
	budget := cfg.Budget
	if budget <= 0 {
		budget = 2 * runtime.GOMAXPROCS(0)
	}
	s := &Server{
		session: onocsim.NewSession(cfg.CacheDir),
		sched:   onocsim.NewSlotScheduler(budget),
		hub:     newHub(),
		mux:     http.NewServeMux(),
		quick:   cfg.Quick,
		start:   time.Now(),
	}
	s.drainCtx, s.drainCancel = context.WithCancelCause(context.Background())
	s.session.SetProgress(s.hub)
	s.runner = &job.Runner{Session: s.session}
	s.mux.HandleFunc("GET /healthz", s.handleHealth)
	s.mux.HandleFunc("GET /v1/stats", s.handleStats)
	s.mux.HandleFunc("GET /v1/experiments", s.handleExperimentList)
	s.mux.HandleFunc("POST /v1/experiments/{id}", s.post(s.decodeExperiment))
	s.mux.HandleFunc("POST /v1/simulate", s.post(s.decodeSimulate))
	s.mux.HandleFunc("POST /v1/sweeps", s.post(s.decodeSweep))
	return s
}

// Handler returns the daemon's HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Drain moves the server into shutdown: new POSTs are refused with 503, and
// the drain context merged into every in-flight request ends, parking long
// self-correction loops at their next round boundary. Call before
// http.Server.Shutdown, which then waits for the in-flight handlers to
// finish writing their (possibly parked) responses. Idempotent.
func (s *Server) Drain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
	s.drainCancel(errDraining)
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// requestCtx merges the client's context with the server's drain context:
// the returned context ends when the client disconnects or the server
// drains, whichever first. The cleanup must be deferred.
func (s *Server) requestCtx(r *http.Request) (context.Context, func()) {
	ctx, cancel := context.WithCancelCause(r.Context())
	stop := context.AfterFunc(s.drainCtx, func() { cancel(errDraining) })
	return ctx, func() { stop(); cancel(nil) }
}

// resultEnvelope is the service's versioned JSON result document. Table is
// the operation's metrics.Table in its own versioned JSON format — the same
// bytes `onocsim -format json` prints, since both front ends share
// internal/report.
type resultEnvelope struct {
	Version     int             `json:"version"`
	Fingerprint string          `json:"fingerprint,omitempty"`
	Op          string          `json:"op"`
	Network     string          `json:"network,omitempty"`
	Status      string          `json:"status"`
	ElapsedMS   int64           `json:"elapsed_ms"`
	Table       json.RawMessage `json:"table"`
}

// envelope renders a result document around a table once, as writeJSON would
// encode it, and splits it around its elapsed_ms, encoded as 0.
func envelope(op, network, fingerprint, status string, elapsed time.Duration, t *metrics.Table) (reply, error) {
	var table, buf bytes.Buffer
	if err := t.WriteJSON(&table); err != nil {
		return reply{}, err
	}
	enc := json.NewEncoder(&buf)
	enc.SetEscapeHTML(false)
	if err := enc.Encode(resultEnvelope{
		Version:     responseVersion,
		Fingerprint: fingerprint,
		Op:          op,
		Network:     network,
		Status:      status,
		Table:       json.RawMessage(table.Bytes()),
	}); err != nil {
		return reply{}, err
	}
	const key = `"elapsed_ms":` // first match is the member: strings escape quotes
	b := buf.Bytes()
	i := bytes.Index(b, []byte(key)) + len(key)
	return reply{rendered{head: b[:i:i], tail: b[i+1:]}, elapsed.Milliseconds()}, nil
}

// rendered is an envelope encoded once, split around the digits of its
// elapsed_ms. A computed reply and all its memo hits are written from it.
type rendered struct{ head, tail []byte }

// reply is a rendered envelope and the elapsed_ms this request answers with.
type reply struct {
	rendered
	elapsedMS int64
}

// MarshalJSON gives an SSE result event the bytes json.Marshal(envelope) would.
func (r reply) MarshalJSON() ([]byte, error) {
	return append(strconv.AppendInt(bytes.Clone(r.head), r.elapsedMS, 10), r.tail...), nil
}

// write answers a plain-JSON request: head, this request's digits, tail.
func (r reply) write(w http.ResponseWriter) {
	digits := strconv.FormatInt(r.elapsedMS, 10) // under 100: no allocation
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Length", strconv.Itoa(len(r.head)+len(digits)+len(r.tail)))
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write(r.head)
	_, _ = io.WriteString(w, digits)
	_, _ = w.Write(r.tail)
}

// apiError carries an HTTP status with a client-facing message.
type apiError struct {
	code int
	msg  string
}

func (e *apiError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &apiError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// httpStatus maps an error to its response code: explicit apiErrors keep
// their code, lifecycle errors (drain, client disconnect, admission refusal)
// are 503, everything else is a 500.
func httpStatus(err error) int {
	var ae *apiError
	if errors.As(err, &ae) {
		return ae.code
	}
	if errors.Is(err, errDraining) || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, err error) {
	writeJSON(w, httpStatus(err), map[string]string{"error": err.Error()})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	if s.Draining() {
		status = "draining"
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    status,
		"uptime_ms": time.Since(s.start).Milliseconds(),
	})
}

// statsResponse is the /v1/stats document.
type statsResponse struct {
	Version       int               `json:"version"`
	UptimeMS      int64             `json:"uptime_ms"`
	Requests      uint64            `json:"requests"`
	Panics        uint64            `json:"panics"`
	Draining      bool              `json:"draining"`
	Cache         simcache.Stats    `json:"cache"`
	Scheduler     onocsim.SlotStats `json:"scheduler"`
	Replies       replyStats        `json:"replies"`
	DroppedEvents uint64            `json:"dropped_events"`
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, statsResponse{
		Version:       responseVersion,
		UptimeMS:      time.Since(s.start).Milliseconds(),
		Requests:      s.requests.Load(),
		Panics:        s.panics.Load(),
		Draining:      s.Draining(),
		Cache:         s.session.CacheStats(),
		Scheduler:     s.sched.Stats(),
		Replies:       s.replies.stats(),
		DroppedEvents: s.hub.dropped.Load(),
	})
}

// experimentInfo is one /v1/experiments listing entry.
type experimentInfo struct {
	ID      string `json:"id"`
	Title   string `json:"title"`
	Summary string `json:"summary"`
	Cost    string `json:"cost"`
}

func (s *Server) handleExperimentList(w http.ResponseWriter, r *http.Request) {
	reg := experiments.Registry()
	out := make([]experimentInfo, 0, len(reg))
	for _, d := range reg {
		out = append(out, experimentInfo{ID: d.ID, Title: d.Title, Summary: d.Summary, Cost: d.CostClass.String()})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	writeJSON(w, http.StatusOK, map[string]any{"version": responseVersion, "experiments": out})
}

// work is one decoded POST: the admission to hold while it runs (units 0
// holds none) and the computation producing its response document.
type work struct {
	class onocsim.SlotClass
	units int
	run   func(ctx context.Context) (any, error)
	hit   reply // if hit.head != nil, a reply-memo hit: nothing to run
}

// post is the one POST pipeline: count the request, refuse it while draining
// (before the body is looked at, so a draining server answers 503 and never
// 400 or 404), decode it, write a memo hit as it is, or merge the client's
// context with the drain context, hold the work's admission units, and
// respond. A panic in the computation — on this goroutine or, under SSE, on
// respond's own, which net/http does not guard — is recovered once, in
// compute: the client gets a 500 (or an SSE error event), /v1/stats counts
// it, and the daemon keeps serving.
func (s *Server) post(decode func(w http.ResponseWriter, r *http.Request) (work, error)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		s.requests.Add(1)
		if s.Draining() {
			writeError(w, errDraining)
			return
		}
		wk, err := decode(w, r)
		if err != nil {
			writeError(w, err)
			return
		}
		if wk.hit.head != nil { // nothing computes, so no progress event belongs to it
			if fl := streamTo(w, r); fl != nil {
				writeSSE(w, "result", wk.hit)
				fl.Flush()
			} else {
				wk.hit.write(w)
			}
			return
		}
		ctx, cleanup := s.requestCtx(r)
		defer cleanup()
		if wk.units > 0 {
			if err := s.sched.Acquire(ctx, wk.class, wk.units); err != nil {
				writeError(w, fmt.Errorf("admission: %w", err))
				return
			}
			defer s.sched.Release(wk.units)
		}
		s.respond(ctx, w, r, wk.run)
	}
}

// compute runs one request's computation, turning a panic into its error.
func (s *Server) compute(ctx context.Context, run func(context.Context) (any, error)) (env any, err error) {
	defer func() {
		if p := recover(); p != nil {
			s.panics.Add(1)
			env, err = nil, fmt.Errorf("service: request panicked: %v", p)
		}
	}()
	return run(ctx)
}

// decodeExperiment resolves a registry experiment, admitted at its registry
// cost class. Experiments are cancellable at admission and between their leaf
// simulations (each queues on the process-wide slot scheduler under the
// request context, and a correction parks at its next round boundary), but
// any other leaf that is already running completes.
func (s *Server) decodeExperiment(_ http.ResponseWriter, r *http.Request) (work, error) {
	id := r.PathValue("id")
	d, ok := experiments.Lookup(id)
	if !ok {
		return work{}, &apiError{code: http.StatusNotFound, msg: fmt.Sprintf("unknown experiment %q", id)}
	}
	return work{class: d.CostClass, units: d.CostClass.Units(), run: func(ctx context.Context) (any, error) {
		start := time.Now()
		t, err := experiments.ByName(ctx, id, experiments.Options{Session: s.session, Quick: s.quick, Progress: s.hub})
		if err != nil {
			return nil, err
		}
		return envelope("experiment:"+id, "", "", "ok", time.Since(start), t)
	}}, nil
}

// simulateRequest is the /v1/simulate body. Config is a full config
// document in the same JSON schema as `onocsim -config` files (validated,
// unknown fields rejected); omitted, the baseline config is used. Trace
// optionally names a stored binary trace file on the server host: a correct
// or estimate op then streams it out-of-core (keyed by content digest)
// instead of capturing the config's kernel — how big tenant traces run
// without ever being materialized in daemon memory.
type simulateRequest struct {
	Op      string          `json:"op"`
	Network string          `json:"network"`
	Config  json.RawMessage `json:"config"`
	Trace   string          `json:"trace"`
}

const maxBody = 1 << 20 // every POST body's cap; a longer one is errTooLarge

var errTooLarge = &apiError{code: http.StatusRequestEntityTooLarge, msg: fmt.Sprintf("request body over %d bytes", maxBody)}

// readBody reads a POST body whole. A declared length sizes the buffer, or is
// refused unread over maxBody; a chunked body is read up to the cap.
func readBody(w http.ResponseWriter, r *http.Request) (data []byte, err error) {
	if r.ContentLength > maxBody {
		return nil, errTooLarge
	}
	if r.ContentLength >= 0 {
		data = make([]byte, r.ContentLength)
		_, err = io.ReadFull(r.Body, data)
	} else {
		data, err = io.ReadAll(http.MaxBytesReader(w, r.Body, maxBody))
	}
	if err != nil && errors.As(err, new(*http.MaxBytesError)) {
		return nil, errTooLarge
	}
	if err != nil {
		return nil, badRequestf("read request: %v", err)
	}
	return data, nil
}

// decodeSimulate builds the request's job — unless the reply memo already
// holds the answer to these exact bytes. A byte-identical repeat of a
// successful request is a lookup and a write: nothing is decoded, validated,
// fingerprinted, admitted (it computes nothing, so it holds no units and is
// answered even while the whole budget is taken) or rendered again; the
// stored reply goes out with this request's own elapsed_ms. Everything else
// runs the full path, and the reply is stored only when it is final and a
// function of the bytes alone: status "ok" (an error or a parked partial
// result must be recomputed, not replayed) and no trace path (the file's
// content can change under the same bytes, so those requests stay keyed by
// content digest in the session cache).
func (s *Server) decodeSimulate(w http.ResponseWriter, r *http.Request) (work, error) {
	start := time.Now()
	data, err := readBody(w, r)
	if err != nil {
		return work{}, err
	}
	key := replyKey(sha256.Sum256(data))
	if rep, ok := s.replies.get(key); ok {
		return work{hit: reply{rep, time.Since(start).Milliseconds()}}, nil
	}
	var req simulateRequest
	if err := config.DecodeStrict(data, &req); err != nil {
		return work{}, badRequestf("decode request: %v", err)
	}
	cfg := onocsim.DefaultConfig()
	if len(req.Config) > 0 {
		cfg, err = config.Parse(req.Config)
		if err != nil {
			return work{}, badRequestf("%v", err)
		}
	}
	j, err := job.New(req.Op, req.Network, cfg, req.Trace)
	if err != nil {
		return work{}, badRequestf("%v", err)
	}
	fp, err := j.Fingerprint()
	if err != nil {
		return work{}, err
	}
	class, units := j.Admission()
	return work{class: class, units: units, run: func(ctx context.Context) (any, error) {
		res, err := s.runner.Run(ctx, j)
		if err != nil {
			return nil, err
		}
		rep, err := envelope(string(j.Op), string(j.Kind), fp, res.Status, res.Elapsed, res.Table)
		if err != nil {
			return nil, err
		}
		if res.Status == "ok" && j.TracePath == "" {
			s.replies.put(key, rep.rendered)
		}
		return rep, nil
	}}, nil
}

// sweepReply is the /v1/sweeps result document: the service's request
// metadata around the sweep's own wire form (sweep.Result), the same document
// `expreport -sweep -format json` prints.
type sweepReply struct {
	Version   int           `json:"version"`
	Status    string        `json:"status"`
	ElapsedMS int64         `json:"elapsed_ms"`
	Sweep     *sweep.Result `json:"sweep"`
}

// decodeSweep prepares a design-space sweep. The request holds no admission
// units itself — every arm admits individually through the shared scheduler
// (estimates light, simulations medium), so hundreds of arms interleave
// fairly with interactive requests instead of reserving the whole budget.
// SSE clients receive one "sweep-arm" progress event per unique arm and
// phase.
func (s *Server) decodeSweep(w http.ResponseWriter, r *http.Request) (work, error) {
	data, err := readBody(w, r)
	if err != nil {
		return work{}, err
	}
	spec := config.DefaultSweep()
	spec.Normalize()
	if len(bytes.TrimSpace(data)) > 0 {
		spec, err = config.ParseSweep(data)
		if err != nil {
			return work{}, badRequestf("%v", err)
		}
	}
	return work{run: func(ctx context.Context) (any, error) {
		start := time.Now()
		res, err := sweep.Run(ctx, spec, sweep.Options{
			Session:  s.session,
			Progress: s.hub,
			Sched:    s.sched,
		})
		if err != nil {
			return nil, err
		}
		return sweepReply{responseVersion, "ok", time.Since(start).Milliseconds(), res}, nil
	}}, nil
}

// wantsSSE reports whether the client asked for an event stream.
func wantsSSE(r *http.Request) bool {
	if r.URL.RawQuery != "" && r.URL.Query().Get("stream") == "sse" {
		return true
	}
	return strings.Contains(r.Header.Get("Accept"), "text/event-stream")
}

// respond runs the computation under ctx and delivers its result envelope:
// as one JSON document, or — when the client asked for SSE — as a progress
// stream terminated by a result (or error) event.
func (s *Server) respond(ctx context.Context, w http.ResponseWriter, r *http.Request, run func(context.Context) (any, error)) {
	fl := streamTo(w, r)
	if fl == nil {
		env, err := s.compute(ctx, run)
		if err != nil {
			writeError(w, err)
		} else if rep, ok := env.(reply); ok {
			rep.write(w)
		} else {
			writeJSON(w, http.StatusOK, env)
		}
		return
	}
	events, unsubscribe := s.hub.subscribe()
	defer unsubscribe()
	done := make(chan struct{})
	var env any
	var cerr error
	go func() {
		defer close(done)
		env, cerr = s.compute(ctx, run)
	}()
	for {
		select {
		case ev := <-events:
			writeSSE(w, "progress", toWire(ev))
			fl.Flush()
		case <-done:
			if cerr != nil {
				writeSSE(w, "error", map[string]string{"error": cerr.Error()})
			} else {
				writeSSE(w, "result", env)
			}
			fl.Flush()
			return
		case <-r.Context().Done():
			// Client gone: stop streaming. The computation goroutine holds
			// the merged context and winds down on its own.
			<-done
			return
		}
	}
}

// streamTo starts an event stream if the client asked for one and w can flush.
func streamTo(w http.ResponseWriter, r *http.Request) http.Flusher {
	fl, canFlush := w.(http.Flusher)
	if !wantsSSE(r) || !canFlush {
		return nil
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)
	fl.Flush()
	return fl
}

// wireEvent is a ProgressEvent flattened for the wire (Err as a string).
type wireEvent struct {
	Kind       string `json:"kind"`
	Experiment string `json:"experiment,omitempty"`
	Title      string `json:"title,omitempty"`
	Sim        string `json:"sim,omitempty"`
	Op         string `json:"op,omitempty"`
	Err        string `json:"err,omitempty"`
	ElapsedMS  int64  `json:"elapsed_ms,omitempty"`
}

func toWire(ev onocsim.ProgressEvent) wireEvent {
	out := wireEvent{
		Kind:       ev.Kind.String(),
		Experiment: ev.Experiment,
		Title:      ev.Title,
		Sim:        ev.Sim,
		Op:         ev.Op,
		ElapsedMS:  ev.Elapsed.Milliseconds(),
	}
	if ev.Err != nil {
		out.Err = ev.Err.Error()
	}
	return out
}

// writeSSE emits one Server-Sent Event with a JSON data payload.
func writeSSE(w http.ResponseWriter, event string, v any) {
	data, err := json.Marshal(v)
	if err != nil {
		data = []byte(`{"error":"marshal failure"}`)
	}
	fmt.Fprintf(w, "event: %s\ndata: %s\n\n", event, data)
}
