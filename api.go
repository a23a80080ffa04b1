// Package onocsim is a full-system simulator for Optical Network-on-Chip
// research, reproducing "Self-Correction Trace Model: A Full-System
// Simulator for Optical Network-on-Chip" (Zhang, He, Fan — IPDPSW 2012).
//
// The package offers four ways to evaluate a workload on a fabric, each a
// context-first method of *Session (a nil *Session runs uncached):
//
//   - RunExecutionDrivenContext: the slow, accurate reference — cores, caches
//     and coherence co-simulated with the network.
//   - CaptureTraceContext + RunNaiveReplayContext: conventional trace-driven
//     simulation, fast but wrong when the target fabric differs from the
//     capture fabric.
//   - CaptureTraceContext + RunSelfCorrectionContext: the paper's
//     Self-Correction Trace Model — iterated dependency-driven replay
//     converging to near execution-driven accuracy at trace-driven cost.
//   - CaptureTraceContext + RunCoupledReplayContext: a tightly coupled
//     dependency replay, the upper-accuracy single-pass reference.
//
// RunStudyContext runs all four against each other; Estimate prices a replay
// in closed form. Every operation that reads a trace takes a TraceSource: a
// captured *Trace is one, and a stored trace file (OpenTraceFile) streams
// through the same call without being materialized. The usual shape:
//
//	s := onocsim.NewSession("")
//	tr, _, err := s.CaptureTraceContext(ctx, cfg, onocsim.IdealNet)
//	res, err := s.RunSelfCorrectionContext(ctx, cfg, tr, onocsim.Optical)
//
// Fabrics: an electrical wormhole mesh (baseline), a Corona-class optical
// crossbar (the ONOC under study), and an ideal fixed-latency capture
// fabric. See DESIGN.md for the system inventory and EXPERIMENTS.md for the
// reconstructed paper evaluation.
package onocsim

import (
	"context"
	"fmt"
	"runtime"
	"time"

	"onocsim/internal/analytic"
	"onocsim/internal/config"
	"onocsim/internal/core"
	"onocsim/internal/cpu"
	"onocsim/internal/fabric"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
	"onocsim/internal/workload"
)

// Re-exported types: the stable public surface. Aliases keep the public API
// thin while the implementations live in internal packages.
type (
	// Config is the root experiment configuration.
	Config = config.Config
	// NetworkKind selects a fabric.
	NetworkKind = config.NetworkKind
	// Network is the fabric contract shared by all interconnect models.
	Network = noc.Network
	// Message is one network transaction.
	Message = noc.Message
	// Trace is a dependency-annotated communication trace.
	Trace = trace.Trace
	// ReplayResult is the outcome of one trace replay.
	ReplayResult = core.ReplayResult
	// CorrectionResult is the outcome of the self-correction loop.
	CorrectionResult = core.CorrectionResult
	// Accuracy is a replay-vs-ground-truth comparison.
	Accuracy = core.Accuracy
	// AnalyticEstimate is a closed-form contention-aware latency estimate.
	AnalyticEstimate = analytic.Result
	// TraceSource yields repeated decode passes over a trace: a resident
	// *Trace is one, and OpenTraceFile streams one from disk.
	TraceSource = trace.Source
	// ReplaySummary is the constant-residency replay result (no per-event
	// time vectors).
	ReplaySummary = core.ReplaySummary
	// Tick is simulated time in cycles.
	Tick = sim.Tick
	// SyntheticResult summarizes one open-loop synthetic traffic run.
	SyntheticResult = workload.SyntheticResult
)

// Fabric kinds.
const (
	Electrical = config.NetElectrical
	Optical    = config.NetOptical
	IdealNet   = config.NetIdeal
	// Hybrid routes short hops electrically, long hops optically.
	Hybrid = config.NetHybrid
)

// DefaultConfig returns the validated baseline configuration (64 cores,
// canonical mesh and crossbar parameters, stencil kernel).
func DefaultConfig() Config { return config.Default() }

// LoadConfig reads and validates a JSON configuration file.
func LoadConfig(path string) (Config, error) { return config.Load(path) }

// BuildNetwork constructs a fresh fabric of the given kind for the config.
func BuildNetwork(cfg Config, kind NetworkKind) (Network, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return fabric.Build(cfg, kind)
}

// ValidateNetworkKind checks that a fabric of the given kind can be built for
// the config, without materializing one. Config validation already guarantees
// the constructor preconditions (node count, channel capacity, geometry), so
// only the kind itself needs checking.
func ValidateNetworkKind(cfg Config, kind NetworkKind) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	if !kind.Valid() {
		return fmt.Errorf("onocsim: unknown network kind %q", kind)
	}
	return nil
}

// NetworkFactory returns a constructor for fresh fabrics of the given kind;
// the self-correction loop uses one per iteration (or resets and reuses one,
// when the fabric supports it).
func NetworkFactory(cfg Config, kind NetworkKind) (core.NetworkFactory, error) {
	if err := ValidateNetworkKind(cfg, kind); err != nil {
		return nil, err
	}
	return func() noc.Network {
		n, err := BuildNetwork(cfg, kind)
		if err != nil {
			panic("onocsim: factory build failed after successful validation: " + err.Error())
		}
		return n
	}, nil
}

// GroundTruth is the result of an execution-driven run.
type GroundTruth struct {
	// Makespan is when the last core finished, in cycles.
	Makespan Tick
	// MeanLatency is the mean network message latency in cycles.
	MeanLatency float64
	// Cycles is the simulated length including drain.
	Cycles Tick
	// Messages is the fabric message count.
	Messages uint64
	// ClassLatency is the mean latency per virtual network, indexed by
	// noc.Class (request, response, writeback).
	ClassLatency [noc.NumClasses]float64
	// Power is the fabric power report over the run.
	Power noc.PowerReport
	// Faults counts injected-fault events the fabric absorbed (all zero
	// unless the config's Faults section enables injection).
	Faults noc.FaultCounts
}

// RunExecutionDrivenContext runs the configured kernel workload
// execution-driven on a fabric of the given kind and returns ground-truth
// metrics. It is the uncached leaf of Session.RunExecutionDrivenContext.
//
// The context governs admission only: if ctx ends while the call queues for
// a simulation slot, it returns the context error without running. Once
// admitted, the run proceeds to completion (execution-driven runs have no
// checkpoint to park at). Every leaf operation follows this contract.
func RunExecutionDrivenContext(ctx context.Context, cfg Config, kind NetworkKind) (GroundTruth, error) {
	res, net, _, err := execute(ctx, cfg, kind, false)
	if err != nil {
		return GroundTruth{}, err
	}
	gt := GroundTruth{
		Makespan:    res.Makespan,
		MeanLatency: net.Stats().MeanLatency(),
		Cycles:      res.Cycles,
		Messages:    res.Messages,
		Power:       net.PowerReport(res.Cycles),
		Faults:      net.Stats().Faults,
	}
	for c := noc.Class(0); c < noc.NumClasses; c++ {
		gt.ClassLatency[c] = net.Stats().PerClass[c].Mean()
	}
	return gt, nil
}

// CaptureTraceContext runs the configured kernel workload execution-driven on
// the capture fabric (by default the cheap ideal network) with recording
// enabled and returns the dependency-annotated trace, plus the host time of
// the call. It is the uncached leaf of Session.CaptureTraceContext; see
// RunExecutionDrivenContext for the context contract.
func CaptureTraceContext(ctx context.Context, cfg Config, captureOn NetworkKind) (*Trace, time.Duration, error) {
	start := time.Now()
	res, _, rec, err := execute(ctx, cfg, captureOn, true)
	if err != nil {
		return nil, 0, err
	}
	tr, err := rec.Finish(cfg.Workload.Kernel, res.Makespan)
	if err != nil {
		return nil, 0, err
	}
	return tr, time.Since(start), nil
}

// execute runs the configured kernel workload execution-driven on a fresh
// fabric of the given kind inside a simulation slot, with a trace recorder
// attached when record is set. A capture is this run recorded: the recorder
// observes the run without changing a cycle of it.
func execute(ctx context.Context, cfg Config, kind NetworkKind, record bool) (cpu.RunResult, Network, *trace.Recorder, error) {
	progs, err := workload.Generate(cfg)
	if err != nil {
		return cpu.RunResult{}, nil, nil, err
	}
	net, err := BuildNetwork(cfg, kind)
	if err != nil {
		return cpu.RunResult{}, nil, nil, err
	}
	var rec *trace.Recorder
	if record {
		rec = trace.NewRecorder(cfg.System.Cores)
	}
	sys, err := cpu.NewSystem(cfg, progs, net, rec)
	if err != nil {
		return cpu.RunResult{}, nil, nil, err
	}
	res, err := inSimSlot(ctx, func() (cpu.RunResult, error) { return sys.Run(cfg.MaxCyclesOrDefault()) })
	return res, net, rec, err
}

// naiveReplay replays the trace at recorded timestamps on fresh fabrics of
// the given kind, split across cfg.Parallelism.Shards replicas where the
// fabric allows it. Results are byte-identical for any shard count.
func naiveReplay(ctx context.Context, cfg Config, src TraceSource, kind NetworkKind) (ReplayResult, error) {
	factory, err := NetworkFactory(cfg, kind)
	if err != nil {
		return ReplayResult{}, err
	}
	return inSimSlot(ctx, func() (ReplayResult, error) {
		return core.NaiveReplayStream(factory, src, cfg.Parallelism.Shards, cfg.Parallelism.WindowEvents)
	})
}

// coupledReplay runs the tightly coupled dependency-driven replay.
func coupledReplay(ctx context.Context, cfg Config, src TraceSource, kind NetworkKind) (ReplayResult, error) {
	net, err := BuildNetwork(cfg, kind)
	if err != nil {
		return ReplayResult{}, err
	}
	opts := core.ScheduleOptions{
		DisableSyncDeps:   cfg.SCTM.DisableSyncDeps,
		DisableCausalDeps: cfg.SCTM.DisableCausalDeps,
	}
	return inSimSlot(ctx, func() (ReplayResult, error) { return core.CoupledReplay(net, src, opts) })
}

// ErrParked reports a self-correction run that stopped at a round boundary
// because its context ended: the returned CorrectionResult holds the valid
// partial trajectory (a byte-identical prefix of the full run), and
// Converged is false. Parked results are never cached — rerunning the same
// request completes, through a session from the round it parked at. Detect
// with errors.Is(err, ErrParked).
var ErrParked = core.ErrParked

// selfCorrect runs the Self-Correction Trace Model against a fresh fabric per
// iteration, every round's replay split across cfg.Parallelism.Shards
// replicas where the fabric allows it; the trajectory and result are
// byte-identical for any shard count. Admission queueing aborts if ctx ends
// first, and a context that ends mid-loop parks the correction at the next
// round boundary: the call returns the partial trajectory, the resume state,
// and an error wrapping ErrParked.
//
// Every trace-touching step of the loop, the analytic seed's pricing pass
// included, reads src, so a trace file is never materialized, and a file and
// the resident trace it encodes produce byte-identical trajectories.
//
// Resume state is opaque, bound to the exact (config, trace content, kind)
// triple that parked, single-use, and in-process only (fabric snapshots do
// not serialize); passing it back re-enters the loop at the parked round
// boundary, reading this call's src, and completes to the result an
// uninterrupted run produces.
func selfCorrect(ctx context.Context, cfg Config, src TraceSource, kind NetworkKind, resume *core.ParkState) (CorrectionResult, *core.ParkState, error) {
	factory, err := NetworkFactory(cfg, kind)
	if err != nil {
		return CorrectionResult{}, nil, err
	}
	var state *core.ParkState
	res, err := inSimSlot(ctx, func() (res CorrectionResult, err error) {
		var seed []sim.Tick
		if resume == nil && cfg.SCTM.SeedMode() == "analytic" {
			// A resumed loop starts from the state's parked schedule; seeding
			// would be discarded, so skip computing it.
			seed = analytic.Seed(cfg, kind, src)
		}
		res, state, err = core.Correct(ctx, factory, src, cfg.SCTM, cfg.Parallelism.Shards, cfg.Parallelism.WindowEvents, seed, resume)
		return res, err
	})
	return res, state, err
}

// Compare computes the accuracy of a replay against ground truth.
func Compare(replay ReplayResult, truth GroundTruth) Accuracy {
	return core.CompareToTruth(replay.Makespan, replay.MeanLatency, truth.Makespan, truth.MeanLatency)
}

// Study is the full methodology comparison for one workload and target
// fabric: ground truth, naive replay, coupled replay, and self-correction,
// with their accuracies.
type Study struct {
	Workload string
	Target   NetworkKind

	Truth    GroundTruth
	Trace    *Trace
	Naive    ReplayResult
	Coupled  ReplayResult
	SCTM     CorrectionResult
	NaiveAcc Accuracy
	CoupAcc  Accuracy
	SCTMAcc  Accuracy
}

// simSched bounds the simulation phases running concurrently across the
// whole process: every leaf operation (execution-driven run, capture, replay,
// synthetic drive) holds one slot while it simulates, so studies that
// pipeline — or experiments.All fanning whole experiments out — keep at most
// one simulation per CPU live, and with it the memory each one pins. It is the
// only bound those fan-outs have: internal/fanout takes no limit. Leaf
// operations never nest, so a goroutine holds at most one slot and the
// scheduler cannot deadlock. Leaf slots are all one class and one
// unit — the weighted classes exist for request-level admission
// (internal/service), which runs its own scheduler instance over its own
// budget.
var simSched = NewSlotScheduler(runtime.NumCPU())

// inSimSlot runs one leaf simulation inside a simulation slot. A caller whose
// context ends while it queues releases its admission claim and gets the
// context error instead of running an orphaned simulation.
func inSimSlot[T any](ctx context.Context, run func() (T, error)) (T, error) {
	if err := simSched.Acquire(ctx, SlotMedium, 1); err != nil {
		var zero T
		return zero, err
	}
	defer simSched.Release(1)
	return run()
}

// syntheticLoad drives a fresh fabric of the given kind open-loop with the
// config's synthetic workload and reports latency/throughput. The electrical
// flit granularity prices offered load on every fabric so the numbers stay
// comparable.
func syntheticLoad(ctx context.Context, cfg Config, kind NetworkKind) (SyntheticResult, error) {
	net, err := BuildNetwork(cfg, kind)
	if err != nil {
		return SyntheticResult{}, err
	}
	return inSimSlot(ctx, func() (SyntheticResult, error) {
		return workload.RunSynthetic(net, cfg.Workload, cfg.Seed)
	})
}

// SaveTrace writes a trace in the binary trace format.
func SaveTrace(path string, tr *Trace) error { return trace.SaveFile(path, tr) }

// OpenTraceFile opens a binary trace file as a streaming source: the header
// is validated up front, events decode incrementally on each pass, and
// resident memory stays bounded by the replay window instead of the trace
// length. It is how a stored trace is read back.
func OpenTraceFile(path string) (TraceSource, error) { return trace.NewFileSource(path) }

// RunNaiveReplaySummaryContext replays the trace at recorded timestamps with
// truly constant residency — O(window + nodes), no per-event vectors —
// returning summary metrics only, plus the host time of the call. This is the
// fully out-of-core tier: traces far larger than memory replay at flat RSS.
// The summary fields equal the corresponding Session.RunNaiveReplayContext
// fields on the same fabric. It is never cached (a summary costs one pass
// either way); see RunExecutionDrivenContext for the context contract.
func RunNaiveReplaySummaryContext(ctx context.Context, cfg Config, src TraceSource, kind NetworkKind) (ReplaySummary, time.Duration, error) {
	start := time.Now()
	net, err := BuildNetwork(cfg, kind)
	if err != nil {
		return ReplaySummary{}, 0, err
	}
	sum, err := inSimSlot(ctx, func() (ReplaySummary, error) { return core.NaiveReplaySummaryStream(net, src) })
	return sum, time.Since(start), err
}

// StaticPowerMW reports the load-independent power floor of a fabric built
// for cfg: router and link leakage for the mesh, laser and ring-tuning power
// for the photonic fabrics. It builds the fabric and reads its power report
// without simulating a cycle, so the value is deterministic and purely
// design-determined — the power objective the design-space sweep prices its
// Pareto fronts with (replay results carry no dynamic power; ground truth
// does, but paying an execution-driven run per arm would defeat the sweep).
func StaticPowerMW(cfg Config, kind NetworkKind) (float64, error) {
	net, err := BuildNetwork(cfg, kind)
	if err != nil {
		return 0, err
	}
	return net.PowerReport(1).StaticMW, nil
}
