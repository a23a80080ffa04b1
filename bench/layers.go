package main

// Every call the benchmark makes into the repository is in this file (the
// fabric decorator in spy.go only implements noc.Network). The end-to-end
// workloads enter through four doors — job.Runner.Run, sweep.Run,
// service.New(...).Handler() and the ...Context functions of package onocsim
// — and everything else here is the traced run's view of single layers:
// the decomposed twins of those four calls and the stand-alone probes. A
// change that moves or merges the simulator's entry points re-points this
// file and leaves the rest of the benchmark alone.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"onocsim"
	"onocsim/internal/analytic"
	"onocsim/internal/config"
	"onocsim/internal/core"
	"onocsim/internal/cpu"
	"onocsim/internal/job"
	"onocsim/internal/metrics"
	"onocsim/internal/noc"
	"onocsim/internal/report"
	"onocsim/internal/service"
	"onocsim/internal/sim"
	"onocsim/internal/simcache"
	"onocsim/internal/sweep"
	"onocsim/internal/trace"
	simload "onocsim/internal/workload"
)

// ---- inputs: everything the simulator sees is generated here from the seed

// kernelConfig is a kernel workload on the baseline chip. The jitter makes
// the seed reach the generated programs, not just the RNG streams.
func kernelConfig(seed uint64, kernel string, cores int, sz sizes) onocsim.Config {
	cfg := onocsim.DefaultConfig()
	cfg.Name = fmt.Sprintf("bench-%s-%dc", kernel, cores)
	cfg.Seed = seed
	cfg.System.Cores = cores
	cfg.Workload.Kernel = kernel
	cfg.Workload.Scale = sz.scale
	cfg.Workload.Iterations = sz.iters
	cfg.Workload.Jitter = 0.05
	return cfg
}

// writeStreamTrace generates the out-of-core trace file of xbar_stream.
func writeStreamTrace(path string, seed uint64, nodes, events int) error {
	spec := simload.DefaultHugeSpec()
	spec.Nodes, spec.Events, spec.Seed = nodes, events, seed
	_, err := simload.WriteHugeFile(path, spec)
	return err
}

// sweepSpec is the default design grid, with the grid's own seed; the smoke
// size keeps one cell of each fabric. The benchmark's seed is deliberately
// not passed on: in this grid a seed only re-draws the fault schedules of the
// faulted arms, which changes how many rounds they take to converge and with
// it the sweep's time by ±15 % — a different workload per seed, not noise.
func sweepSpec(sz sizes) config.Sweep {
	spec := config.DefaultSweep()
	if sz.smallSweep {
		spec.Networks = []config.NetworkKind{config.NetElectrical, config.NetOptical}
		spec.Cores = []int{16}
		spec.Wavelengths = []int{4, 16}
		spec.Faults = []string{"off"}
		spec.Kernels = []string{"stencil"}
	}
	return *spec.Normalize()
}

// simulateBody renders one POST /v1/simulate request body.
func simulateBody(op string, kind onocsim.NetworkKind, cfg onocsim.Config) ([]byte, error) {
	raw, err := json.Marshal(cfg)
	if err != nil {
		return nil, err
	}
	return json.Marshal(simulateDoc{Op: op, Network: string(kind), Config: raw})
}

var serveOps = []string{"correct", "estimate", "study", "exec"}

// hotBody is request i of the hot set: ops and kernels cycle, and every
// config is distinct (seed and compute scale), so the set fills 32 cache
// entries per operation kind rather than one.
func hotBody(seed uint64, i int, sz sizes) ([]byte, error) {
	cfg := kernelConfig(seed+uint64(i), []string{"stencil", "lu"}[(i/len(serveOps))%2], sz.cores, sz)
	cfg.Workload.ComputeScale = 1 + float64(i)/64
	return simulateBody(serveOps[i%len(serveOps)], onocsim.Optical, cfg)
}

// coldBody is the k-th never-seen request of a run: a small correct job
// whose compute scale no earlier request of the run used. (A fresh config
// seed alone would not do: the replay's cache key masks the seed on a
// fault-free fabric.)
func coldBody(seed uint64, k int, sz sizes) ([]byte, error) {
	cfg := kernelConfig(seed, "stencil", 16, sz)
	cfg.Workload.ComputeScale = 2 + float64(seed%97)/97 + float64(k)/4096
	return simulateBody("correct", onocsim.Optical, cfg)
}

// ---- the four doors the end-to-end workloads use

// runJob executes one job cold: a fresh session, so nothing is memoized.
func runJob(ctx context.Context, j job.Job) (job.Result, cacheCounts, error) {
	sess := onocsim.NewSession("")
	res, err := (&job.Runner{Session: sess}).Run(ctx, j)
	return res, countsOf(sess.CacheStats()), err
}

func countsOf(st simcache.Stats) cacheCounts { return cacheCounts{st.Hits, st.Misses, st.Waits} }

func correctJob(cfg onocsim.Config, kind onocsim.NetworkKind, tracePath string) job.Job {
	return job.Job{Op: job.OpCorrect, Config: cfg, Kind: kind, TracePath: tracePath}
}

// runSummary is the constant-residency naive replay of a trace file.
func runSummary(ctx context.Context, cfg onocsim.Config, path string, kind onocsim.NetworkKind) (onocsim.ReplaySummary, error) {
	src, err := onocsim.OpenTraceFile(path)
	if err != nil {
		return onocsim.ReplaySummary{}, err
	}
	sum, _, err := onocsim.RunNaiveReplaySummaryContext(ctx, cfg, src, kind)
	return sum, err
}

// sweepState is what one finished sweep leaves for the benchmark to check:
// its digest and accounting, and the session that still holds every arm.
type sweepState struct {
	spec                          config.Sweep
	sess                          *onocsim.Session
	digest                        string
	cache                         cacheCounts
	uniqueJobs, pruned, simulated int
	simulatedArms                 map[string]bool
}

// runSweep is one sweep on a fresh session with default options; progress is
// the public event sink the traced run reads phase edges from (nil = off).
func runSweep(ctx context.Context, spec config.Sweep, progress onocsim.Progress) (*sweepState, error) {
	sess := onocsim.NewSession("")
	res, err := sweep.Run(ctx, spec, sweep.Options{Session: sess, Progress: progress})
	if err != nil {
		return nil, err
	}
	st := &sweepState{spec: spec, sess: sess, uniqueJobs: res.UniqueJobs, pruned: res.Pruned, simulated: res.Simulated,
		simulatedArms: map[string]bool{}}
	if st.digest, err = digestSweep(res); err != nil {
		return nil, err
	}
	st.cache = countsOf(sess.CacheStats())
	// Which arms were simulated is only public through the summary table.
	last := len(res.Summary.Columns) - 1
	for r := 0; r < res.Summary.NumRows(); r++ {
		if res.Summary.Cell(r, last) == "simulated" {
			st.simulatedArms[res.Summary.Cell(r, 0)] = true
		}
	}
	if len(st.simulatedArms) != res.Simulated {
		return nil, fmt.Errorf("sweep summary names %d simulated arms, result counts %d", len(st.simulatedArms), res.Simulated)
	}
	return st, nil
}

// traceEvents sums the captured-trace events over the sweep's unique arms:
// the trace events one sweep takes to a final answer. Every capture is a
// hit in the sweep's own session.
func (s *sweepState) traceEvents(ctx context.Context) (int, error) {
	arms, err := sweep.Expand(s.spec)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, a := range arms {
		tr, _, err := s.sess.CaptureTraceContext(ctx, a.Job.Config, onocsim.IdealNet)
		if err != nil {
			return 0, err
		}
		total += tr.NumEvents()
	}
	return total, nil
}

// accuracy is the mean makespan error of the simulated arms against their
// execution-driven runs; SCTM's answers come back out of the session.
func (s *sweepState) accuracy(ctx context.Context) (float64, error) {
	arms, err := sweep.Expand(s.spec)
	if err != nil {
		return 0, err
	}
	runner := &job.Runner{Session: s.sess}
	sum, n := 0.0, 0
	for _, a := range arms {
		if !s.simulatedArms[a.Label] {
			continue
		}
		res, err := runner.Run(ctx, a.Job)
		if err != nil {
			return 0, err
		}
		truth, err := truthMakespan(ctx, a.Job.Config, a.Job.Kind)
		if err != nil {
			return 0, err
		}
		sum += math.Abs(float64(res.Correction.Final.Makespan)-truth) / truth
		n++
	}
	if n == 0 {
		return 0, fmt.Errorf("sweep simulated no arm")
	}
	return 100 * sum / float64(n), nil
}

func newServiceHandler() http.Handler { return service.New(service.Config{}).Handler() }

// truthMakespan is the accuracy reference: the execution-driven run of the
// same config on the same fabric.
func truthMakespan(ctx context.Context, cfg onocsim.Config, kind onocsim.NetworkKind) (float64, error) {
	gt, err := onocsim.RunExecutionDrivenContext(ctx, cfg, kind)
	return float64(gt.Makespan), err
}

// ---- digests of simulated statistics (never of work counters or host time)

func hashU64(h hash.Hash, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
}

func hashNetStats(h hash.Hash, s *noc.Stats) {
	if s == nil {
		hashU64(h, 0)
		return
	}
	hashU64(h, s.Injected, s.Delivered, s.BytesDelivered)
}

// digestCorrection covers what a correction run claims about the modelled
// chip: the converged replay and the trajectory that led to it.
func digestCorrection(res *onocsim.CorrectionResult) string {
	h := sha256.New()
	hashU64(h, uint64(res.Final.Makespan), math.Float64bits(res.Final.MeanLatency), uint64(len(res.Iterations)))
	if res.Converged {
		hashU64(h, 1)
	}
	for _, it := range res.Iterations {
		hashU64(h, uint64(it.Makespan), math.Float64bits(it.MeanLatency))
	}
	hashNetStats(h, res.Final.NetStats)
	return hex.EncodeToString(h.Sum(nil))
}

func digestSummary(sum onocsim.ReplaySummary) string {
	h := sha256.New()
	hashU64(h, uint64(sum.Events), uint64(sum.Makespan), math.Float64bits(sum.MeanLatency))
	hashNetStats(h, sum.NetStats)
	return hex.EncodeToString(h.Sum(nil))
}

// workCounterRows are report rows that count the simulator's work, not the
// modelled chip's behaviour; an optimisation may change them.
var workCounterRows = map[string]bool{
	"events replayed":               true,
	"simulation cost (cycles)":      true,
	"cycles skipped by checkpoints": true,
}

// hashTable folds a report table's simulated cells into h: host-time cells
// (duration kind), work-counter rows and the free-text notes are left out.
func hashTable(h hash.Hash, t *metrics.Table) {
	h.Write([]byte(t.Title))
	for r := 0; r < t.NumRows(); r++ {
		if workCounterRows[t.Cell(r, 0)] {
			continue
		}
		for c := range t.Columns {
			cell := t.At(r, c)
			if cell.Kind == metrics.KindDuration {
				continue
			}
			h.Write([]byte(cell.Render()))
			h.Write([]byte{0})
		}
	}
}

// digestSweep covers every realized point, the front and the per-arm
// summary; none of their renderings carries a wall clock, by design.
func digestSweep(res *sweep.Result) (string, error) {
	h := sha256.New()
	for _, v := range []any{res.Points, res.Front, res.Summary} {
		data, err := json.Marshal(v)
		if err != nil {
			return "", err
		}
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// responseTable decodes a /v1/simulate envelope far enough to reach its
// table, and fails on anything but a completed run.
func responseTable(body []byte) (*metrics.Table, error) {
	var env struct {
		Status string         `json:"status"`
		Table  *metrics.Table `json:"table"`
	}
	if err := json.Unmarshal(body, &env); err != nil {
		return nil, fmt.Errorf("decode response: %w", err)
	}
	if env.Status != "ok" || env.Table == nil || env.Table.NumRows() == 0 {
		return nil, fmt.Errorf("response status %q without a table", env.Status)
	}
	return env.Table, nil
}

// ---- decomposed twins: the same work as public calls into each layer

// layerOf names the module that implements a fabric kind.
func layerOf(kind onocsim.NetworkKind) string {
	switch kind {
	case onocsim.Electrical:
		return "enoc"
	case onocsim.Optical:
		return "onoc"
	case onocsim.Hybrid:
		return "hybrid"
	default:
		return "noc.ideal"
	}
}

// twinner runs twins under spans and keeps what only a twin can see: the
// fabric decorators' tallies and the correction loops' work counts.
type twinner struct {
	rec            *recorder
	fabric         map[string]*fabricStats
	rounds         int
	replayedEvents int
}

func newTwinner(rec *recorder) *twinner {
	return &twinner{rec: rec, fabric: map[string]*fabricStats{}}
}

func (t *twinner) stats(kind onocsim.NetworkKind) *fabricStats {
	name := layerOf(kind)
	if t.fabric[name] == nil {
		t.fabric[name] = new(fabricStats)
	}
	return t.fabric[name]
}

// charge closes a stretch of decorated fabric use: the busy time and calls
// accrued since (busy0, calls0) become one aggregate child of parent.
func (t *twinner) charge(kind onocsim.NetworkKind, parent int, busy0 time.Duration, calls0 uint64) {
	st := t.stats(kind)
	t.rec.aggregate(layerOf(kind), parent, st.busy()-busy0, st.callCount()-calls0)
}

// capture is onocsim.CaptureTraceContext rebuilt from its parts, with the
// ideal capture fabric decorated.
func (t *twinner) capture(parent, req int, cfg onocsim.Config) (*onocsim.Trace, error) {
	id := t.rec.begin("cpu.capture", parent, req)
	defer t.rec.end(id)
	g := t.rec.begin("workload.generate", id, req)
	progs, err := simload.Generate(cfg)
	t.rec.end(g)
	if err != nil {
		return nil, err
	}
	bare, err := onocsim.BuildNetwork(cfg, onocsim.IdealNet)
	if err != nil {
		return nil, err
	}
	st := t.stats(onocsim.IdealNet)
	busy0, calls0 := st.busy(), st.callCount()
	net, err := spy(bare, st)
	if err != nil {
		return nil, err
	}
	rec := trace.NewRecorder(cfg.System.Cores)
	sys, err := cpu.NewSystem(cfg, progs, net, rec)
	if err != nil {
		return nil, err
	}
	run, err := sys.Run(cfg.MaxCyclesOrDefault())
	if err != nil {
		return nil, err
	}
	tr, err := rec.Finish(cfg.Workload.Kernel, run.Makespan)
	t.charge(onocsim.IdealNet, id, busy0, calls0)
	return tr, err
}

// selfCorrect is onocsim.RunSelfCorrectionParkableContext rebuilt: the same
// core entry point, handed a factory whose fabrics are decorated.
func (t *twinner) selfCorrect(ctx context.Context, parent, req int, cfg onocsim.Config, kind onocsim.NetworkKind, tr *onocsim.Trace) (onocsim.CorrectionResult, time.Duration, error) {
	bare, err := onocsim.NetworkFactory(cfg, kind)
	if err != nil {
		return onocsim.CorrectionResult{}, 0, err
	}
	st := t.stats(kind)
	factory, err := spyFactory(bare, st)
	if err != nil {
		return onocsim.CorrectionResult{}, 0, err
	}
	busy0, calls0 := st.busy(), st.callCount()
	id := t.rec.begin("core.selfcorrect", parent, req)
	start := time.Now()
	var seed []sim.Tick
	if cfg.SCTM.SeedMode() == "analytic" {
		seed = analytic.Seed(cfg, kind, tr)
	}
	res, _, err := core.SelfCorrectParkableCtx(ctx, factory, tr, cfg.SCTM, cfg.Parallelism.Shards, seed, nil)
	wall := time.Since(start)
	t.charge(kind, id, busy0, calls0)
	t.rec.end(id)
	t.tally(res)
	return res, wall, err
}

func (t *twinner) tally(res onocsim.CorrectionResult) {
	t.rounds += len(res.Iterations)
	t.replayedEvents += res.ReplayedEvents
}

// render is the report and wire encoding a front end adds to a correction.
func (t *twinner) render(parent, req int, cfg onocsim.Config, kind onocsim.NetworkKind, res onocsim.CorrectionResult, wall time.Duration, encode bool) error {
	id := t.rec.begin("report.render", parent, req)
	table := report.Correction(cfg, kind, res, wall, false)
	t.rec.end(id)
	if !encode {
		return nil
	}
	id = t.rec.begin("metrics.marshal", parent, req)
	_, err := json.Marshal(table)
	t.rec.end(id)
	return err
}

// keys is the identity work a cold job pays before simulating: validation
// and the normalized fingerprints its cache keys are made of.
func (t *twinner) keys(parent, req int, cfg onocsim.Config, kind onocsim.NetworkKind) error {
	id := t.rec.begin("config.validate", parent, req)
	err := onocsim.ValidateNetworkKind(cfg, kind)
	t.rec.end(id)
	if err != nil {
		return err
	}
	id = t.rec.begin("session.key", parent, req)
	_, err = onocsim.SelfCorrectionKey(cfg, kind)
	t.rec.end(id)
	return err
}

// correctJob is the twin of job.Runner.Run on a cold in-memory correct job.
// wire adds what a service request pays around the job: parsing the config
// document, fingerprinting it for the envelope, and encoding the table.
func (t *twinner) correctJob(ctx context.Context, req int, cfg onocsim.Config, kind onocsim.NetworkKind, wire bool) (onocsim.CorrectionResult, time.Duration, error) {
	var body []byte
	if wire {
		var err error
		if body, err = json.Marshal(cfg); err != nil {
			return onocsim.CorrectionResult{}, 0, err
		}
	}
	root := t.rec.begin("twin:correct", -1, req)
	res, err := func() (onocsim.CorrectionResult, error) {
		if wire {
			id := t.rec.begin("config.parse", root, req)
			parsed, err := config.Parse(body)
			t.rec.end(id)
			if err != nil {
				return onocsim.CorrectionResult{}, err
			}
			cfg = parsed
			id = t.rec.begin("config.fingerprint", root, req)
			_, err = cfg.Fingerprint()
			t.rec.end(id)
			if err != nil {
				return onocsim.CorrectionResult{}, err
			}
		}
		if err := t.keys(root, req, cfg, kind); err != nil {
			return onocsim.CorrectionResult{}, err
		}
		tr, err := t.capture(root, req, cfg)
		if err != nil {
			return onocsim.CorrectionResult{}, err
		}
		res, wall, err := t.selfCorrect(ctx, root, req, cfg, kind, tr)
		if err != nil {
			return res, err
		}
		return res, t.render(root, req, cfg, kind, res, wall, wire)
	}()
	return res, t.rec.end(root), err
}

// streamPass is the twin of one xbar_stream pass: the summary replay, then
// the digest-keyed streamed correction of the same file.
func (t *twinner) streamPass(ctx context.Context, req int, cfg onocsim.Config, path string, kind onocsim.NetworkKind) (onocsim.ReplaySummary, onocsim.CorrectionResult, time.Duration, error) {
	st := t.stats(kind)
	bareFactory, err := onocsim.NetworkFactory(cfg, kind)
	if err != nil {
		return onocsim.ReplaySummary{}, onocsim.CorrectionResult{}, 0, err
	}
	factory, err := spyFactory(bareFactory, st)
	if err != nil {
		return onocsim.ReplaySummary{}, onocsim.CorrectionResult{}, 0, err
	}
	root := t.rec.begin("twin:stream", -1, req)
	sum, res, err := func() (onocsim.ReplaySummary, onocsim.CorrectionResult, error) {
		var none onocsim.CorrectionResult
		src, err := onocsim.OpenTraceFile(path)
		if err != nil {
			return onocsim.ReplaySummary{}, none, err
		}
		busy0, calls0 := st.busy(), st.callCount()
		id := t.rec.begin("core.naive_summary", root, req)
		sum, err := core.NaiveReplaySummaryStream(factory(), src)
		t.charge(kind, id, busy0, calls0)
		t.rec.end(id)
		if err != nil {
			return sum, none, err
		}

		if err := t.keys(root, req, cfg, kind); err != nil {
			return sum, none, err
		}
		file, err := trace.NewFileSource(path)
		if err != nil {
			return sum, none, err
		}
		id = t.rec.begin("trace.digest", root, req)
		_, err = file.Digest()
		t.rec.end(id)
		if err != nil {
			return sum, none, err
		}
		busy0, calls0 = st.busy(), st.callCount()
		id = t.rec.begin("core.selfcorrect", root, req)
		start := time.Now()
		res, err := core.SelfCorrectStream(factory, file, cfg.SCTM, cfg.Parallelism.Shards, cfg.Parallelism.WindowEvents, nil)
		wall := time.Since(start)
		t.charge(kind, id, busy0, calls0)
		t.rec.end(id)
		if err != nil {
			return sum, res, err
		}
		t.tally(res)
		return sum, res, t.render(root, req, cfg, kind, res, wall, false)
	}()
	return sum, res, t.rec.end(root), err
}

// sweepPass is the twin of sweep.Run, one arm after another on one
// goroutine: expand, price every unique arm (captures shared by capture
// identity, as the session shares them), then simulate the arms the real
// run simulated. The prune decision itself is taken from the real result —
// re-deriving it here would copy the sweep's code rather than time it.
func (t *twinner) sweepPass(ctx context.Context, req int, spec config.Sweep, simulated map[string]bool) (time.Duration, error) {
	root := t.rec.begin("twin:sweep", -1, req)
	err := func() error {
		id := t.rec.begin("sweep.expand", root, req)
		arms, err := sweep.Expand(spec)
		t.rec.end(id)
		if err != nil {
			return err
		}
		traces := make([]*onocsim.Trace, len(arms))
		captures := map[string]*onocsim.Trace{} // arms share captures, as they do in a session
		phase := t.rec.begin("sweep.estimate_phase", root, req)
		for i, a := range arms {
			cfg, kind := a.Job.Config, a.Job.Kind
			if err := t.keys(phase, req, cfg, kind); err != nil {
				return err
			}
			_, capKey, _ := strings.Cut(a.Key, "+")
			tr := captures[capKey]
			if tr == nil {
				if tr, err = t.capture(phase, req, cfg); err != nil {
					return err
				}
				captures[capKey] = tr
			}
			traces[i] = tr
			id := t.rec.begin("analytic.estimate", phase, req)
			_, err := analytic.Estimate(cfg, kind, tr)
			t.rec.end(id)
			if err != nil {
				return err
			}
			id = t.rec.begin("sweep.static_power", phase, req)
			_, err = onocsim.StaticPowerMW(cfg, kind)
			t.rec.end(id)
			if err != nil {
				return err
			}
		}
		t.rec.end(phase)
		phase = t.rec.begin("sweep.simulate_phase", root, req)
		for i, a := range arms {
			if !simulated[a.Label] {
				continue
			}
			res, wall, err := t.selfCorrect(ctx, phase, req, a.Job.Config, a.Job.Kind, traces[i])
			if err != nil {
				return err
			}
			if err := t.render(phase, req, a.Job.Config, a.Job.Kind, res, wall, false); err != nil {
				return err
			}
		}
		t.rec.end(phase)
		return nil
	}()
	return t.rec.end(root), err
}

// warmRequest is the twin of the service handler on a request whose result
// is already cached in runner's session: decode, parse, validate,
// fingerprint, admit, run (a cache hit that re-renders the table), encode.
func (t *twinner) warmRequest(ctx context.Context, req int, body []byte, svc *twinService) (time.Duration, error) {
	root := t.rec.begin("twin:request", -1, req)
	err := func() error {
		id := t.rec.begin("service.decode", root, req)
		var doc simulateDoc
		dec := json.NewDecoder(bytes.NewReader(body))
		dec.DisallowUnknownFields()
		err := dec.Decode(&doc)
		t.rec.end(id)
		if err != nil {
			return err
		}
		id = t.rec.begin("config.parse", root, req)
		cfg, err := config.Parse(doc.Config)
		t.rec.end(id)
		if err != nil {
			return err
		}
		kind := onocsim.NetworkKind(doc.Network)
		cfg.Network = kind
		j := job.Job{Op: job.Op(doc.Op), Config: cfg, Kind: kind}
		id = t.rec.begin("config.validate", root, req)
		err = j.Validate()
		t.rec.end(id)
		if err != nil {
			return err
		}
		id = t.rec.begin("config.fingerprint", root, req)
		_, err = j.Fingerprint()
		t.rec.end(id)
		if err != nil {
			return err
		}
		id = t.rec.begin("sched.admit", root, req)
		class, units := j.Admission()
		err = svc.sched.Acquire(ctx, class, units)
		t.rec.end(id)
		if err != nil {
			return err
		}
		id = t.rec.begin("job.run_warm", root, req)
		res, err := svc.runner.Run(ctx, j)
		t.rec.end(id)
		svc.sched.Release(units)
		if err != nil {
			return err
		}
		id = t.rec.begin("metrics.marshal", root, req)
		var buf bytes.Buffer
		err = res.Table.WriteJSON(&buf)
		if err == nil {
			enc := json.NewEncoder(httptest.NewRecorder())
			enc.SetEscapeHTML(false)
			err = enc.Encode(map[string]any{"version": 1, "op": doc.Op, "status": res.Status, "table": json.RawMessage(buf.Bytes())})
		}
		t.rec.end(id)
		return err
	}()
	return t.rec.end(root), err
}

// warmRunner is a runner whose session already holds the result of every
// body: what the service's runner looks like after the hot set is warmed.
func warmRunner(ctx context.Context, bodies [][]byte) (*job.Runner, error) {
	runner := &job.Runner{Session: onocsim.NewSession("")}
	for _, body := range bodies {
		j, err := jobOfBody(body)
		if err != nil {
			return nil, err
		}
		if _, err := runner.Run(ctx, j); err != nil {
			return nil, err
		}
	}
	return runner, nil
}

// simulateDoc is the /v1/simulate request document.
type simulateDoc struct {
	Op      string          `json:"op"`
	Network string          `json:"network"`
	Config  json.RawMessage `json:"config"`
}

func jobOfBody(body []byte) (job.Job, error) {
	var doc simulateDoc
	if err := json.Unmarshal(body, &doc); err != nil {
		return job.Job{}, err
	}
	cfg, err := config.Parse(doc.Config)
	if err != nil {
		return job.Job{}, err
	}
	kind := onocsim.NetworkKind(doc.Network)
	cfg.Network = kind
	return job.Job{Op: job.Op(doc.Op), Config: cfg, Kind: kind}, nil
}

// twinService is the decomposed request path's own warm state: a runner
// whose session holds the hot set, and an admission scheduler sized like the
// daemon's.
type twinService struct {
	runner *job.Runner
	sched  *onocsim.SlotScheduler
}

func newTwinService(ctx context.Context, hot [][]byte) (*twinService, error) {
	runner, err := warmRunner(ctx, hot)
	if err != nil {
		return nil, err
	}
	return &twinService{runner: runner, sched: onocsim.NewSlotScheduler(2 * runtime.GOMAXPROCS(0))}, nil
}

// serveDirect calls the handler without a socket, as the twin's reference.
func serveDirect(h http.Handler, body []byte) (int, time.Duration) {
	req := httptest.NewRequest(http.MethodPost, "/v1/simulate", bytes.NewReader(body))
	w := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(w, req)
	return w.Code, time.Since(start)
}

// ---- stand-alone probes: one layer each, timed from outside

// perCall times fn in batches for about budget and returns the median time
// of one call. A slow fn is still called at least three times.
func perCall(budget time.Duration, fn func()) time.Duration {
	start := time.Now()
	fn()
	first := time.Since(start)
	batch := 1
	if first < time.Millisecond {
		batch = int(time.Millisecond/(first+1)) + 1
	}
	var per []float64
	for len(per) < 3 || time.Since(start) < budget {
		t := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		per = append(per, float64(time.Since(t))/float64(batch))
	}
	return time.Duration(median(per))
}

// probeEnv is what the probes share: one captured trace on the optical
// crossbar, one trace file, one request body.
type probeEnv struct {
	ctx    context.Context
	cfg    onocsim.Config
	tr     *onocsim.Trace
	inject []sim.Tick // the naive schedule: recorded timestamps
	file   string
	events int // in file
	body   []byte
	dir    string
	budget time.Duration // how long each probe may time its layer
}

func newProbeEnv(ctx context.Context, dir string, sz sizes) (*probeEnv, error) {
	e := &probeEnv{ctx: ctx, dir: dir, cfg: kernelConfig(1, "stencil", sz.cores, sz), events: 1 << 15, budget: sz.probeBudget}
	tr, _, err := onocsim.CaptureTraceContext(ctx, e.cfg, onocsim.IdealNet)
	if err != nil {
		return nil, err
	}
	e.tr = tr
	e.inject = make([]sim.Tick, len(tr.Events))
	for i := range tr.Events {
		e.inject[i] = tr.Events[i].RefInject
	}
	e.file = filepath.Join(dir, "probe.sctm")
	if err := writeStreamTrace(e.file, 1, sz.cores, e.events); err != nil {
		return nil, err
	}
	e.body, err = simulateBody("correct", onocsim.Optical, e.cfg)
	return e, err
}

// probe measures one layer; it reports its metrics through set.
type probe struct {
	layer string
	run   func(e *probeEnv, set func(name string, v float64)) error
}

func us(d time.Duration) float64 { return float64(d) / 1e3 }
func ms(d time.Duration) float64 { return float64(d) / 1e6 }

// snapshotProbe loads a fabric with the first half of the probe trace and
// times one Snapshot plus Restore of that mid-replay state.
func snapshotProbe(e *probeEnv, kind onocsim.NetworkKind) (time.Duration, error) {
	net, err := onocsim.BuildNetwork(e.cfg, kind)
	if err != nil {
		return 0, err
	}
	ck, ok := net.(noc.Checkpointer)
	if !ok {
		return 0, fmt.Errorf("fabric %s is not checkpointable", kind)
	}
	net.SetDeliver(func(*noc.Message) {})
	for i := 0; i < len(e.tr.Events)/2; i++ {
		ev := &e.tr.Events[i]
		noc.SkipIdle(net, ev.RefInject)
		net.Inject(&noc.Message{ID: uint64(ev.ID), Src: ev.Src, Dst: ev.Dst, Bytes: ev.Bytes, Class: ev.Class})
	}
	return perCall(e.budget, func() { ck.Restore(ck.Snapshot()) }), nil
}

var probes = []probe{
	{"enoc+onoc snapshot", func(e *probeEnv, set func(string, float64)) error {
		for _, k := range []onocsim.NetworkKind{onocsim.Electrical, onocsim.Optical} {
			d, err := snapshotProbe(e, k)
			if err != nil {
				return err
			}
			set(layerOf(k)+".snapshot_us", us(d))
		}
		return nil
	}},
	{"core", func(e *probeEnv, set func(string, float64)) error {
		factory, err := onocsim.NetworkFactory(e.cfg, onocsim.Optical)
		if err != nil {
			return err
		}
		n := float64(len(e.tr.Events))
		lat := make([]sim.Tick, len(e.tr.Events))
		zero := factory()
		for i := range e.tr.Events {
			ev := &e.tr.Events[i]
			lat[i] = zero.ZeroLoadLatency(ev.Src, ev.Dst, ev.Bytes)
		}
		set("core.schedule_us", us(perCall(e.budget, func() { core.Schedule(e.tr, lat, core.ScheduleOptions{}) })))
		var ferr error
		keep := func(err error) {
			if err != nil && ferr == nil {
				ferr = err
			}
		}
		mem := perCall(e.budget, func() { _, err := core.ReplaySchedule(factory(), e.tr, e.inject); keep(err) })
		set("core.replay_mem_ns_per_event", float64(mem)/n)
		src := trace.NewMemSource(e.tr)
		stream := perCall(e.budget, func() { _, err := core.ReplayScheduleStream(factory(), src, e.inject, 0); keep(err) })
		set("core.replay_stream_ns_per_event", float64(stream)/n)
		sharded := perCall(e.budget, func() { _, err := core.ReplayScheduleSharded(factory, e.tr, e.inject, 2); keep(err) })
		set("core.replay_shards2_ns_per_event", float64(sharded)/n)
		incr := e.cfg.SCTM
		incr.Incremental = true
		var res onocsim.CorrectionResult
		d := perCall(e.budget, func() { var err error; res, err = core.SelfCorrect(factory, e.tr, incr); keep(err) })
		set("core.correct_incr_ns_per_event", float64(d)/n)
		if full := len(res.Iterations) * len(e.tr.Events); full > 0 {
			set("core.incr_replayed_frac", float64(res.ReplayedEvents)/float64(full))
		}
		sctm := perCall(e.budget, func() { _, err := core.SelfCorrect(factory, e.tr, e.cfg.SCTM); keep(err) })
		naive := perCall(e.budget, func() { _, err := core.NaiveReplay(factory(), e.tr); keep(err) })
		set("core.sctm_over_naive", float64(sctm)/float64(naive))
		return ferr
	}},
	{"trace", func(e *probeEnv, set func(string, float64)) error {
		var ferr error
		src, err := trace.NewFileSource(e.file)
		if err != nil {
			return err
		}
		d := perCall(e.budget, func() {
			it, err := src.Pass()
			if err != nil {
				ferr = err
				return
			}
			var ev trace.Event
			for {
				ok, err := it.Next(&ev)
				if err != nil {
					ferr = err
				}
				if !ok {
					break
				}
			}
			it.Close()
		})
		set("trace.decode_mevents_per_s", float64(e.events)/d.Seconds()/1e6)
		d = perCall(e.budget, func() {
			fresh, err := trace.NewFileSource(e.file) // the digest is memoized per source
			if err == nil {
				_, err = fresh.Digest()
			}
			if err != nil {
				ferr = err
			}
		})
		set("trace.digest_ms", ms(d))
		out := filepath.Join(e.dir, "probe-encode.sctm")
		d = perCall(e.budget, func() {
			if err := writeStreamTrace(out, 1, e.cfg.System.Cores, e.events); err != nil {
				ferr = err
			}
		})
		set("trace.encode_mevents_per_s", float64(e.events)/d.Seconds()/1e6)
		return ferr
	}},
	{"cpu+workload+sim", func(e *probeEnv, set func(string, float64)) error {
		var ferr error
		d := perCall(e.budget, func() {
			if _, _, err := onocsim.CaptureTraceContext(e.ctx, e.cfg, onocsim.IdealNet); err != nil {
				ferr = err
			}
		})
		set("cpu.capture_ms", ms(d))
		set("cpu.capture_events_per_s", float64(len(e.tr.Events))/d.Seconds())
		d = perCall(e.budget, func() {
			if _, err := simload.Generate(e.cfg); err != nil {
				ferr = err
			}
		})
		set("workload.generate_ms", ms(d))
		const churn = 4096
		d = perCall(e.budget, func() {
			eng := sim.NewEngine()
			for i := 0; i < churn; i++ {
				eng.Schedule(sim.Tick(i%97), func() {})
			}
			for eng.Step() {
			}
		})
		set("sim.engine_ns_per_event", float64(d)/churn)
		return ferr
	}},
	{"analytic+sweep", func(e *probeEnv, set func(string, float64)) error {
		var ferr error
		d := perCall(e.budget, func() {
			if _, err := analytic.Estimate(e.cfg, onocsim.Optical, e.tr); err != nil {
				ferr = err
			}
		})
		set("analytic.estimate_us", us(d))
		spec := sweepSpec(fullSize)
		d = perCall(e.budget, func() {
			if _, err := sweep.Expand(spec); err != nil {
				ferr = err
			}
		})
		set("sweep.expand_us", us(d))
		rng := sim.NewStream(1, "bench-front")
		pts := make([]sweep.Point, 22) // the default grid simulates 22 arms
		for i := range pts {
			pts[i] = sweep.Point{Label: strconv.Itoa(i), LatencyCycles: 20 + 80*rng.Float64(), ThroughputBpc: rng.Float64(), PowerMW: 100 * rng.Float64()}
		}
		set("sweep.front_us", us(perCall(e.budget, func() { sweep.Front(pts) })))
		return ferr
	}},
	{"sched", func(e *probeEnv, set func(string, float64)) error {
		var ferr error
		free := onocsim.NewSlotScheduler(4)
		d := perCall(e.budget, func() {
			if err := free.Acquire(e.ctx, onocsim.SlotMedium, 2); err != nil {
				ferr = err
			}
			free.Release(2)
		})
		set("sched.acquire_ns", float64(d))
		// Four goroutines cycle medium claims of two units through a budget
		// of two: every claim but the first queues behind another's hold.
		tight := onocsim.NewSlotScheduler(2)
		const claimers, claims = 4, 200
		var wg sync.WaitGroup
		waits := make([]time.Duration, claimers)
		errs := make([]error, claimers)
		for g := 0; g < claimers; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < claims; i++ {
					t := time.Now()
					if err := tight.Acquire(e.ctx, onocsim.SlotMedium, 2); err != nil {
						errs[g] = err
						return
					}
					waits[g] += time.Since(t)
					for hold := time.Now(); time.Since(hold) < 20*time.Microsecond; {
					}
					tight.Release(2)
				}
			}()
		}
		wg.Wait()
		var total time.Duration
		for _, w := range waits {
			total += w
		}
		set("sched.contended_wait_us", us(total)/(claimers*claims))
		gone, cancel := context.WithCancel(e.ctx)
		cancel()
		_ = tight.Acquire(gone, onocsim.SlotLight, 1) // refused: counts as cancelled
		st := tight.Stats()
		set("sched.admitted", float64(st.Admitted))
		set("sched.cancelled", float64(st.Cancelled))
		return errors.Join(append(errs, ferr)...)
	}},
	{"simcache", func(e *probeEnv, set func(string, float64)) error {
		var ferr error
		c := simcache.New("")
		key := simcache.Key{Fingerprint: "settled", Kind: "optical", Op: simcache.OpSCTM}
		compute := func() (any, error) { return 1, nil }
		c.Do(key, compute)
		set("simcache.hit_ns", float64(perCall(e.budget, func() { c.Do(key, compute) })))
		n := 0
		d := perCall(e.budget, func() {
			n++
			c.Do(simcache.Key{Fingerprint: strconv.Itoa(n), Kind: "optical", Op: simcache.OpSCTM}, compute)
		})
		set("simcache.miss_overhead_ns", float64(d))
		dir := filepath.Join(e.dir, "cachedir")
		value := func() (map[string]float64, error) { return map[string]float64{"makespan": 12345}, nil }
		if _, err := simcache.DoValue(simcache.New(dir), key, value); err != nil {
			return err
		}
		d = perCall(e.budget, func() {
			_, err := simcache.DoValue(simcache.New(dir), key, func() (map[string]float64, error) {
				return nil, errors.New("disk layer missed")
			})
			if err != nil {
				ferr = err
			}
		})
		set("simcache.disk_hit_us", us(d))
		return ferr
	}},
	{"config+session", func(e *probeEnv, set func(string, float64)) error {
		var ferr error
		keep := func(err error) {
			if err != nil {
				ferr = err
			}
		}
		raw, err := json.Marshal(e.cfg)
		if err != nil {
			return err
		}
		set("config.parse_us", us(perCall(e.budget, func() { _, err := config.Parse(raw); keep(err) })))
		set("config.fingerprint_us", us(perCall(e.budget, func() { _, err := e.cfg.Fingerprint(); keep(err) })))
		set("session.key_us", us(perCall(e.budget, func() { _, err := onocsim.SelfCorrectionKey(e.cfg, onocsim.Optical); keep(err) })))
		return ferr
	}},
	{"job+report+metrics", func(e *probeEnv, set func(string, float64)) error {
		var ferr error
		runner, err := warmRunner(e.ctx, [][]byte{e.body})
		if err != nil {
			return err
		}
		j := correctJob(e.cfg, onocsim.Optical, "")
		var res job.Result
		d := perCall(e.budget, func() {
			var err error
			if res, err = runner.Run(e.ctx, j); err != nil {
				ferr = err
			}
		})
		if ferr != nil {
			return ferr
		}
		set("job.run_warm_us", us(d))
		set("report.render_us", us(perCall(e.budget, func() { report.Correction(e.cfg, onocsim.Optical, *res.Correction, time.Millisecond, false) })))
		d = perCall(e.budget, func() {
			if _, err := json.Marshal(res.Table); err != nil {
				ferr = err
			}
		})
		set("metrics.marshal_us", us(d))
		return ferr
	}},
	{"service", func(e *probeEnv, set func(string, float64)) error {
		h := newServiceHandler()
		if code, _ := serveDirect(h, e.body); code != http.StatusOK {
			return fmt.Errorf("warming the probe service: status %d", code)
		}
		var ferr error
		handler := perCall(e.budget, func() {
			if code, _ := serveDirect(h, e.body); code != http.StatusOK {
				ferr = fmt.Errorf("warm request: status %d", code)
			}
		})
		set("service.handler_warm_us", us(handler))
		ts := httptest.NewServer(h)
		defer ts.Close()
		client := ts.Client()
		socket := perCall(e.budget, func() {
			if _, err := postSimulate(client, ts.URL, e.body, nil); err != nil {
				ferr = err
			}
		})
		set("service.http_overhead_us", us(socket-handler))
		return ferr
	}},
}

// postSimulate is one closed-loop request: send, wait for the whole reply.
// The reply is read into buf (reused across calls) and returned.
func postSimulate(client *http.Client, url string, body []byte, buf *bytes.Buffer) ([]byte, error) {
	resp, err := client.Post(url+"/v1/simulate", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if buf == nil {
		buf = new(bytes.Buffer)
	}
	buf.Reset()
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return buf.Bytes(), &statusError{code: resp.StatusCode}
	}
	return buf.Bytes(), nil
}

type statusError struct{ code int }

func (e *statusError) Error() string { return "http status " + strconv.Itoa(e.code) }

// serviceStats reads the cache counters the daemon exports.
func serviceStats(client *http.Client, url string) (cacheCounts, error) {
	resp, err := client.Get(url + "/v1/stats")
	if err != nil {
		return cacheCounts{}, err
	}
	defer resp.Body.Close()
	var doc struct {
		Cache simcache.Stats `json:"cache"`
	}
	err = json.NewDecoder(resp.Body).Decode(&doc)
	return countsOf(doc.Cache), err
}

// attribution prints, for one cold correct request on each of the mesh and
// the crossbar, the twin's rows beside the handler's measured total.
func attribution(ctx context.Context, sz sizes) error {
	for _, kind := range []onocsim.NetworkKind{onocsim.Electrical, onocsim.Optical} {
		cfg := kernelConfig(1, "stencil", sz.cores, sz)
		body, err := simulateBody("correct", kind, cfg)
		if err != nil {
			return err
		}
		code, real := serveDirect(newServiceHandler(), body)
		if code != http.StatusOK {
			return fmt.Errorf("cold %s request: status %d", kind, code)
		}
		rec := newRecorder()
		tw := newTwinner(rec)
		if _, _, err := tw.correctJob(ctx, 0, cfg, kind, true); err != nil {
			return err
		}
		total, self := byName(rec.spans)
		fmt.Printf("\ncold correct request on %s (%d cores, stencil): handler total %.2f ms\n", kind, cfg.System.Cores, ms(real))
		fmt.Println("| row | layer | ms | share of total |")
		fmt.Println("|---|---|---:|---:|")
		rows := []struct{ row, span string }{
			{"parse", "config.parse"}, {"validate", "config.validate"}, {"fingerprint", "config.fingerprint"},
			{"key", "session.key"}, {"capture: programs", "workload.generate"}, {"capture: cores + caches", "cpu.capture"},
			{"capture: ideal fabric", "noc.ideal"}, {"estimate", "analytic.estimate"},
			{"rounds: core self", "core.selfcorrect"}, {"rounds: fabric", layerOf(kind)},
			{"render", "report.render"}, {"encode", "metrics.marshal"},
		}
		sum := time.Duration(0)
		for _, r := range rows {
			d := self[r.span]
			sum += d
			fmt.Printf("| %s | %s | %.3f | %.1f%% |\n", r.row, r.span, ms(d), 100*float64(d)/float64(real))
		}
		fmt.Printf("| rows sum | | %.3f | %.1f%% |\n", ms(sum), 100*float64(sum)/float64(real))
		fmt.Printf("| twin total | twin:correct | %.3f | %.1f%% |\n", ms(total["twin:correct"]), 100*float64(total["twin:correct"])/float64(real))
	}
	return nil
}
