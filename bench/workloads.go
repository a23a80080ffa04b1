package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"onocsim"
	"onocsim/internal/config"
	"onocsim/internal/sim"
)

// sizes is how big the workloads are. The benchmark of record runs fullSize;
// the smoke test under `go test` runs the same code at smokeSize.
type sizes struct {
	cores        int // chip size of mesh_correct, the hot set and the probes
	scale, iters int // kernel problem size (4/2 is the sweep's "quick")
	streamEvents int // events in xbar_stream's trace file
	smallSweep   bool
	hotSet       int // distinct configs the served mix keeps warm
	block        int // requests in one serve_mix pass
	coldEvery    int // one request in coldEvery is a never-seen config
	probeBudget  time.Duration
}

var (
	fullSize  = sizes{cores: 64, scale: 4, iters: 2, streamEvents: 1 << 19, hotSet: 32, block: 10000, coldEvery: 200, probeBudget: 60 * time.Millisecond}
	smokeSize = sizes{cores: 16, scale: 4, iters: 2, streamEvents: 1 << 14, smallSweep: true, hotSet: 8, block: 500, coldEvery: 100, probeBudget: time.Millisecond}
)

// passOut is what one pass reports about itself.
type passOut struct {
	ops, failed int
	work        int               // trace events resolved, or requests answered
	replayed    int               // events the pass injected into fabrics, all rounds
	digests     map[string]string // per op, over simulated statistics only
	warmMS      []float64         // serve_mix: latency of each hot-set request
	coldMS      []float64         // serve_mix: latency of each never-seen request
	non200      int               // serve_mix: replies with another status than 200
	cache       cacheCounts
	extra       map[string]float64 // layer figures only this workload has
	firstErr    error
}

type cacheCounts struct{ hits, misses, waits uint64 }

func (c *cacheCounts) add(o cacheCounts) {
	c.hits += o.hits
	c.misses += o.misses
	c.waits += o.waits
}

func (p *passOut) fail(err error) {
	p.failed++
	if p.firstErr == nil {
		p.firstErr = err
	}
}

// workload is one named traffic mix. setup builds the seed's inputs and the
// state passes share and runs one untimed warm-up pass; pass runs the real
// entry points (under spans when rec is non-nil); twin redoes a pass as
// public calls into single layers; reference measures the error against the
// execution-driven run, for the workloads that have one.
type workload interface {
	setup(ctx context.Context) error
	pass(ctx context.Context, rec *recorder, n int) passOut
	twin(ctx context.Context, tw *twinner, n int) (total, real time.Duration, digests map[string]string, err error)
	reference(ctx context.Context) (errPct float64, has bool, err error)
	close()
}

var workloadNames = []string{"mesh_correct", "xbar_stream", "sweep_default", "serve_mix"}

func newWorkload(name string, seed uint64, sz sizes, scratch string) (workload, error) {
	switch name {
	case "mesh_correct":
		return &meshCorrect{seed: seed, sz: sz}, nil
	case "xbar_stream":
		return &xbarStream{seed: seed, sz: sz, dir: scratch}, nil
	case "sweep_default":
		return &sweepDefault{sz: sz}, nil
	case "serve_mix":
		return &serveMix{seed: seed, sz: sz}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %v)", name, workloadNames)
}

// checkCorrection holds a correction to what must be true of any seed: the
// run completed and the fabric delivered every trace event exactly once.
func checkCorrection(res *onocsim.CorrectionResult, events int) error {
	if res == nil {
		return fmt.Errorf("no correction result")
	}
	st := res.Final.NetStats
	if st == nil || st.Injected != uint64(events) || st.Delivered != uint64(events) {
		return fmt.Errorf("fabric injected/delivered %+v, trace has %d events", st, events)
	}
	if res.Final.Makespan <= 0 || len(res.Iterations) == 0 {
		return fmt.Errorf("empty correction: makespan %d after %d rounds", res.Final.Makespan, len(res.Iterations))
	}
	return nil
}

// ---- mesh_correct

type meshCorrect struct {
	seed     uint64
	sz       sizes
	deck     []onocsim.Config
	makespan []float64 // SCTM's answer per deck entry, from the latest pass
}

func (w *meshCorrect) setup(ctx context.Context) error {
	w.deck = []onocsim.Config{
		kernelConfig(w.seed, "stencil", w.sz.cores, w.sz),
		kernelConfig(w.seed, "lu", w.sz.cores, w.sz),
	}
	for i := range w.deck {
		// With the makespan early exit on, stencil stops after 4 to 8
		// rounds depending on the seed and the pass time moves with it.
		// Off, both kernels run all MaxIterations rounds on every seed:
		// the work is fixed and the seed only varies the traffic.
		w.deck[i].SCTM.MakespanTolerance = 0
	}
	w.makespan = make([]float64, len(w.deck))
	return w.pass(ctx, nil, 0).firstErr
}

func (w *meshCorrect) pass(ctx context.Context, rec *recorder, n int) passOut {
	out := passOut{digests: map[string]string{}}
	for i, cfg := range w.deck {
		out.ops++
		id := rec.begin("job.Runner.Run", -1, n)
		res, cache, err := runJob(ctx, correctJob(cfg, onocsim.Electrical, ""))
		rec.end(id)
		if err == nil {
			err = checkCorrection(res.Correction, res.TraceEvents)
		}
		if err != nil {
			out.fail(fmt.Errorf("%s: %w", cfg.Workload.Kernel, err))
			continue
		}
		out.work += res.TraceEvents
		out.replayed += res.Correction.ReplayedEvents
		out.digests[cfg.Workload.Kernel] = digestCorrection(res.Correction)
		out.cache.add(cache)
		w.makespan[i] = float64(res.Correction.Final.Makespan)
	}
	return out
}

func (w *meshCorrect) twin(ctx context.Context, tw *twinner, n int) (total, real time.Duration, digests map[string]string, err error) {
	digests = map[string]string{}
	for _, cfg := range w.deck {
		res, d, err := tw.correctJob(ctx, n, cfg, onocsim.Electrical, false)
		if err != nil {
			return 0, 0, nil, err
		}
		total += d
		digests[cfg.Workload.Kernel] = digestCorrection(&res)
	}
	return total, 0, digests, nil
}

func (w *meshCorrect) reference(ctx context.Context) (float64, bool, error) {
	sum := 0.0
	for i, cfg := range w.deck {
		truth, err := truthMakespan(ctx, cfg, onocsim.Electrical)
		if err != nil {
			return 0, false, err
		}
		sum += math.Abs(w.makespan[i]-truth) / truth
	}
	return 100 * sum / float64(len(w.deck)), true, nil
}

func (w *meshCorrect) close() {}

// ---- xbar_stream

type xbarStream struct {
	seed uint64
	sz   sizes
	dir  string
	path string
	cfg  onocsim.Config
}

func (w *xbarStream) setup(ctx context.Context) error {
	w.cfg = onocsim.DefaultConfig()
	w.cfg.System.Cores = w.sz.cores
	w.path = filepath.Join(w.dir, fmt.Sprintf("xbar-stream-%d.sctm", os.Getpid()))
	if err := writeStreamTrace(w.path, w.seed, w.sz.cores, w.sz.streamEvents); err != nil {
		return err
	}
	return w.pass(ctx, nil, 0).firstErr
}

func (w *xbarStream) pass(ctx context.Context, rec *recorder, n int) passOut {
	out := passOut{digests: map[string]string{}}
	events := w.sz.streamEvents

	out.ops++
	id := rec.begin("RunNaiveReplaySummaryContext", -1, n)
	sum, err := runSummary(ctx, w.cfg, w.path, onocsim.Optical)
	rec.end(id)
	if err == nil && (sum.Events != events || sum.NetStats == nil || sum.NetStats.Delivered != uint64(events)) {
		err = fmt.Errorf("summary replayed %d of %d events", sum.Events, events)
	}
	if err != nil {
		out.fail(fmt.Errorf("summary: %w", err))
	} else {
		out.work += events
		out.replayed += events
		out.digests["summary"] = digestSummary(sum)
	}

	out.ops++
	id = rec.begin("job.Runner.Run", -1, n)
	res, cache, err := runJob(ctx, correctJob(w.cfg, onocsim.Optical, w.path))
	rec.end(id)
	if err == nil {
		err = checkCorrection(res.Correction, events)
	}
	if err != nil {
		out.fail(fmt.Errorf("streamed correct: %w", err))
		return out
	}
	out.work += events
	out.replayed += res.Correction.ReplayedEvents
	out.digests["correct"] = digestCorrection(res.Correction)
	out.cache = cache
	return out
}

func (w *xbarStream) twin(ctx context.Context, tw *twinner, n int) (total, real time.Duration, digests map[string]string, err error) {
	sum, res, d, err := tw.streamPass(ctx, n, w.cfg, w.path, onocsim.Optical)
	if err != nil {
		return 0, 0, nil, err
	}
	return d, 0, map[string]string{"summary": digestSummary(sum), "correct": digestCorrection(&res)}, nil
}

// reference: a generated trace file has no program behind it, so there is no
// execution-driven run to compare with. The workload is unvalidated and
// reports no error figure.
func (w *xbarStream) reference(context.Context) (float64, bool, error) { return 0, false, nil }

func (w *xbarStream) close() {
	if w.path != "" {
		_ = os.Remove(w.path)
		w.path = ""
	}
}

// ---- sweep_default

type sweepDefault struct {
	sz     sizes
	spec   config.Sweep
	events int // Σ captured-trace events over the unique arms
	last   *sweepState
}

func (w *sweepDefault) setup(ctx context.Context) error {
	w.spec = sweepSpec(w.sz)
	if out := w.pass(ctx, nil, 0); out.firstErr != nil {
		return out.firstErr
	}
	var err error
	w.events, err = w.last.traceEvents(ctx)
	return err
}

// phaseClock turns the sweep's public progress events into phase edges: the
// estimate phase ends with the last "estimate" event.
type phaseClock struct {
	mu           sync.Mutex
	lastEstimate time.Time
}

func (p *phaseClock) Event(ev onocsim.ProgressEvent) {
	if ev.Kind == onocsim.ProgressSweepArm && ev.Op == "estimate" {
		p.mu.Lock()
		p.lastEstimate = time.Now()
		p.mu.Unlock()
	}
}

func (w *sweepDefault) pass(ctx context.Context, rec *recorder, n int) passOut {
	out := passOut{ops: 1, digests: map[string]string{}, extra: map[string]float64{}}
	var clock *phaseClock
	var progress onocsim.Progress
	if rec != nil {
		clock = new(phaseClock)
		progress = clock
	}
	start := time.Now()
	id := rec.begin("sweep.Run", -1, n)
	st, err := runSweep(ctx, w.spec, progress)
	rec.end(id)
	end := time.Now()
	if err != nil {
		out.fail(err)
		return out
	}
	w.last = st
	out.work = w.events
	out.digests["sweep"] = st.digest
	out.cache = st.cache
	out.extra["sweep.unique_jobs"] = float64(st.uniqueJobs)
	out.extra["sweep.simulated"] = float64(st.simulated)
	out.extra["analytic.prune_ratio"] = float64(st.pruned) / float64(st.uniqueJobs)
	if clock != nil && !clock.lastEstimate.IsZero() {
		out.extra["sweep.estimate_phase_ms"] = ms(clock.lastEstimate.Sub(start))
		out.extra["sweep.simulate_phase_ms"] = ms(end.Sub(clock.lastEstimate))
	}
	return out
}

// twin: the twin runs the arms one after another while the real sweep runs
// them on every core, so the two are compared in CPU time, not wall time.
func (w *sweepDefault) twin(ctx context.Context, tw *twinner, n int) (total, real time.Duration, digests map[string]string, err error) {
	cpu0 := cpuTime()
	if out := w.pass(ctx, nil, n); out.firstErr != nil {
		return 0, 0, nil, out.firstErr
	}
	real = cpuTime() - cpu0
	cpu0 = cpuTime()
	if _, err := tw.sweepPass(ctx, n, w.spec, w.last.simulatedArms); err != nil {
		return 0, 0, nil, err
	}
	return cpuTime() - cpu0, real, nil, nil
}

func (w *sweepDefault) reference(ctx context.Context) (float64, bool, error) {
	pct, err := w.last.accuracy(ctx)
	return pct, true, err
}

func (w *sweepDefault) close() {}

// ---- serve_mix

// serveMix is the daemon's handler behind a loopback socket, driven closed
// loop by two clients on two keep-alive connections: each sends its next
// request when the previous reply has been read in full.
type serveMix struct {
	seed    uint64
	sz      sizes
	handler http.Handler
	server  *httptest.Server
	client  *http.Client
	hot     [][]byte
	expect  []maskedBody // the hot set's replies, elapsed_ms cut out
	hotSum  string       // digest over the hot replies' simulated cells
	colds   int          // never-seen requests issued so far
	blocks  int
	seen    cacheCounts // the daemon's cache counters at the end of the last pass
	twinRun *twinService
}

const serveClients = 2

// maskedBody is a reply split around the one field that differs between two
// answers from a warm cache: the digits of "elapsed_ms".
type maskedBody struct{ head, tail []byte }

var elapsedKey = []byte(`"elapsed_ms":`)

func maskElapsed(body []byte) (maskedBody, bool) {
	i := bytes.Index(body, elapsedKey)
	if i < 0 {
		return maskedBody{}, false
	}
	j := i + len(elapsedKey)
	k := j
	for k < len(body) && body[k] >= '0' && body[k] <= '9' {
		k++
	}
	return maskedBody{head: body[:j], tail: body[k:]}, true
}

func (m maskedBody) clone() maskedBody {
	return maskedBody{head: bytes.Clone(m.head), tail: bytes.Clone(m.tail)}
}

func (m maskedBody) equal(o maskedBody) bool {
	return bytes.Equal(m.head, o.head) && bytes.Equal(m.tail, o.tail)
}

func (w *serveMix) setup(ctx context.Context) error {
	w.handler = newServiceHandler()
	w.server = httptest.NewServer(w.handler)
	w.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}
	w.hot = make([][]byte, w.sz.hotSet)
	w.expect = make([]maskedBody, w.sz.hotSet)
	h := sha256.New()
	for i := range w.hot {
		body, err := hotBody(w.seed, i, w.sz)
		if err != nil {
			return err
		}
		w.hot[i] = body
		reply, err := postSimulate(w.client, w.server.URL, body, nil)
		if err != nil {
			return fmt.Errorf("warming hot request %d: %w", i, err)
		}
		table, err := responseTable(reply)
		if err != nil {
			return fmt.Errorf("hot request %d: %w", i, err)
		}
		hashTable(h, table)
		m, ok := maskElapsed(reply)
		if !ok {
			return fmt.Errorf("hot request %d: reply carries no elapsed_ms", i)
		}
		w.expect[i] = m.clone()
	}
	w.hotSum = hex.EncodeToString(h.Sum(nil))
	// Warm-up: a tenth of a block, hot requests only, so the connections
	// and the server's goroutines exist before the first timed block.
	plan, err := w.plan(w.sz.block/10, false)
	if err != nil {
		return err
	}
	return w.block(ctx, nil, plan).firstErr
}

// planned is one position of a block: hot request number hot, or (hot < 0)
// the run's cold-th never-seen request. Bodies are rendered before the
// clients start, so the clients only send.
type planned struct {
	hot, cold int
	body      []byte
}

// plan lays out one block.
func (w *serveMix) plan(n int, withCold bool) ([]planned, error) {
	rng := sim.NewStream(w.seed, fmt.Sprintf("serve-block-%d", w.blocks))
	w.blocks++
	plan := make([]planned, n)
	for i := range plan {
		if withCold && i%w.sz.coldEvery == w.sz.coldEvery/2 {
			body, err := coldBody(w.seed, w.colds, w.sz)
			if err != nil {
				return nil, err
			}
			plan[i] = planned{hot: -1, cold: w.colds, body: body}
			w.colds++
			continue
		}
		hot := rng.Intn(len(w.hot))
		plan[i] = planned{hot: hot, body: w.hot[hot]}
	}
	return plan, nil
}

func (w *serveMix) pass(ctx context.Context, rec *recorder, n int) passOut {
	firstCold := w.colds
	plan, err := w.plan(w.sz.block, true)
	if err != nil {
		out := passOut{ops: 1}
		out.fail(err)
		return out
	}
	out := w.block(ctx, rec, plan)
	if firstCold == 0 {
		out.digests["hot"] = w.hotSum
	} else {
		delete(out.digests, "cold") // only the run's first colds are comparable across passes
	}
	if st, err := serviceStats(w.client, w.server.URL); err != nil {
		out.fail(err)
	} else {
		// The daemon's counters are cumulative; a pass reports its own share.
		out.cache = cacheCounts{st.hits - w.seen.hits, st.misses - w.seen.misses, st.waits - w.seen.waits}
		w.seen = st
	}
	return out
}

// block sends the planned requests, split between the clients by position.
func (w *serveMix) block(ctx context.Context, rec *recorder, plan []planned) passOut {
	type coldReply struct {
		k    int
		hash string
	}
	outs := make([]passOut, serveClients)
	colds := make([][]coldReply, serveClients)
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := &outs[c]
			var buf bytes.Buffer
			for i := c; i < len(plan) && ctx.Err() == nil; i += serveClients {
				out.ops++
				p := plan[i]
				id := rec.begin("POST /v1/simulate", -1, c)
				start := time.Now()
				reply, err := postSimulate(w.client, w.server.URL, p.body, &buf)
				lat := float64(time.Since(start)) / 1e6
				rec.end(id)
				if err != nil {
					if errors.As(err, new(*statusError)) {
						out.non200++
					}
					out.fail(err)
					continue
				}
				if p.hot >= 0 {
					out.warmMS = append(out.warmMS, lat)
					if m, ok := maskElapsed(reply); !ok || !m.equal(w.expect[p.hot]) {
						out.fail(fmt.Errorf("hot request %d: reply differs from the warmed one", p.hot))
					}
					continue
				}
				out.coldMS = append(out.coldMS, lat)
				table, err := responseTable(reply)
				if err != nil {
					out.fail(err)
					continue
				}
				h := sha256.New()
				hashTable(h, table)
				colds[c] = append(colds[c], coldReply{p.cold, hex.EncodeToString(h.Sum(nil))})
			}
		}()
	}
	wg.Wait()

	total := passOut{digests: map[string]string{}}
	var all []coldReply
	for c, o := range outs {
		total.ops += o.ops
		total.failed += o.failed
		total.non200 += o.non200
		total.warmMS = append(total.warmMS, o.warmMS...)
		total.coldMS = append(total.coldMS, o.coldMS...)
		if total.firstErr == nil {
			total.firstErr = o.firstErr
		}
		all = append(all, colds[c]...)
	}
	total.work = total.ops - total.failed
	sort.Slice(all, func(i, j int) bool { return all[i].k < all[j].k })
	h := sha256.New()
	for _, r := range all {
		h.Write([]byte(r.hash))
	}
	total.digests["cold"] = hex.EncodeToString(h.Sum(nil))
	return total
}

// twin: a sample of the hot set goes once through the handler with no socket
// (the measured total) and once through the decomposed request path.
func (w *serveMix) twin(ctx context.Context, tw *twinner, n int) (total, real time.Duration, digests map[string]string, err error) {
	if w.twinRun == nil {
		if w.twinRun, err = newTwinService(ctx, w.hot); err != nil {
			return 0, 0, nil, err
		}
	}
	const rounds = 8
	for r := 0; r < rounds; r++ {
		for i, body := range w.hot {
			code, d := serveDirect(w.handler, body)
			if code != http.StatusOK {
				return 0, 0, nil, fmt.Errorf("hot request %d without a socket: status %d", i, code)
			}
			real += d
			d, err := tw.warmRequest(ctx, n, body, w.twinRun)
			if err != nil {
				return 0, 0, nil, err
			}
			total += d
		}
	}
	return total, real, nil, nil
}

// reference: the mix's simulations are a twentieth of its time and the same
// engines as mesh_correct and sweep_default validate; no error figure here.
func (w *serveMix) reference(context.Context) (float64, bool, error) { return 0, false, nil }

func (w *serveMix) close() {
	if w.server != nil {
		w.client.CloseIdleConnections()
		w.server.Close()
		w.server = nil
	}
}
