// Package job defines the one typed request shape every front end routes
// through. Before it existed the same triple — an operation, a validated
// config, a fabric kind — was re-expressed independently by the onocsim CLI's
// mode switch, the onocsimd service's request decoding and admission pricing,
// and the batch consumers that want to enqueue hundreds of runs at once. A
// Job names that triple once; a Runner executes it through a shared Session
// (memoization, single-flight dedup, disk layer) and returns both the
// rendered table the front ends print and the typed result values batch
// consumers (the design-space sweep) aggregate.
//
// The package deliberately does not import internal/experiments: experiment
// jobs carry their registry id and cost class as data, and the caller that
// owns the registry (the service) injects the dispatch function. That keeps
// the dependency arrow pointing one way — experiments may build on jobs (R20
// runs a sweep of them) without the pipeline depending on the registry.
package job

import (
	"context"
	"errors"
	"fmt"
	"time"

	"onocsim"
	"onocsim/internal/metrics"
	"onocsim/internal/report"
)

// Op names one pipeline operation.
type Op string

const (
	// OpExec is an execution-driven ground-truth run.
	OpExec Op = "exec"
	// OpStudy is the full methodology comparison.
	OpStudy Op = "study"
	// OpCorrect captures the config's kernel trace (or streams TracePath)
	// and runs the self-correction loop on the target fabric.
	OpCorrect Op = "correct"
	// OpEstimate prices the config's kernel trace on the target fabric with
	// the closed-form contention model.
	OpEstimate Op = "estimate"
	// OpExperiment runs one registry experiment (Job.Experiment names it);
	// dispatch is injected via Runner.Experiment.
	OpExperiment Op = "experiment"
)

// Job is one typed simulation request: the single shape CLI flags, service
// request bodies and sweep grid arms all reduce to.
type Job struct {
	// Op selects the operation.
	Op Op
	// Config is the full validated configuration. Unused for OpExperiment.
	Config onocsim.Config
	// Kind is the target fabric. Unused for OpExperiment.
	Kind onocsim.NetworkKind
	// Experiment is the registry id ("r1") for OpExperiment.
	Experiment string
	// Cost is the experiment's registry cost class ("light", "medium",
	// "heavy") for admission pricing; empty prices as medium. Simulation
	// ops ignore it — their op implies the class.
	Cost string
	// TracePath optionally replaces the config's captured kernel trace with
	// a stored binary trace file, streamed out-of-core and keyed by content
	// digest (OpCorrect only). This is how the service runs big tenant
	// traces without materializing them.
	TracePath string
}

// Validate checks the job is executable before any admission or simulation
// is paid for.
func (j Job) Validate() error {
	switch j.Op {
	case OpExperiment:
		if j.Experiment == "" {
			return fmt.Errorf("job: experiment op without an experiment id")
		}
		return nil
	case OpExec, OpStudy, OpCorrect, OpEstimate:
		if j.TracePath != "" && j.Op != OpCorrect {
			return fmt.Errorf("job: trace path is only supported by op correct (got %q)", j.Op)
		}
		return onocsim.ValidateNetworkKind(j.Config, j.Kind)
	default:
		return fmt.Errorf("job: unknown op %q", j.Op)
	}
}

// Admission prices the job for a SlotScheduler: the class and cost units one
// admission Acquire should claim. The weights are deliberately coarse — they
// keep a burst of heavy sweeps from monopolizing a budget, not model cost
// precisely. Experiment jobs are priced by their registry cost class.
func (j Job) Admission() (onocsim.SlotClass, int) {
	if j.Op == OpExperiment {
		return AdmissionForCost(j.Cost)
	}
	switch j.Op {
	case OpStudy:
		return onocsim.SlotHeavy, 4
	case OpEstimate:
		return onocsim.SlotLight, 1
	default: // exec, correct
		return onocsim.SlotMedium, 2
	}
}

// AdmissionForCost maps a registry cost class name to admission pricing.
func AdmissionForCost(cost string) (onocsim.SlotClass, int) {
	switch cost {
	case "light":
		return onocsim.SlotLight, 1
	case "heavy":
		return onocsim.SlotHeavy, 4
	default:
		return onocsim.SlotMedium, 2
	}
}

// Fingerprint returns the job config's canonical fingerprint — the identity
// the service reports in result envelopes. Empty for experiment jobs, whose
// identity is the registry id.
func (j Job) Fingerprint() (string, error) {
	if j.Op == OpExperiment {
		return "", nil
	}
	return j.Config.Fingerprint()
}

// Result is one executed job: the rendered table both front ends print,
// plus the typed values batch consumers aggregate without re-parsing cells.
// Exactly one of the payload pointers is set, matching the op.
type Result struct {
	// Table is the operation's report table (internal/report builders, so
	// CLI and daemon renderings stay byte-identical).
	Table *metrics.Table
	// Status is "ok", or "parked" for a correction that stopped at a round
	// boundary and returned its partial trajectory.
	Status string
	// Elapsed is the host time the job took end to end (including cache
	// hits, which make it near zero).
	Elapsed time.Duration

	// Truth is set for OpExec.
	Truth *onocsim.GroundTruth
	// Study is set for OpStudy.
	Study *onocsim.Study
	// Correction is set for OpCorrect.
	Correction *onocsim.CorrectionResult
	// Estimate is set for OpEstimate.
	Estimate *onocsim.AnalyticEstimate

	// TraceEvents and TraceBytes size the trace an OpCorrect/OpEstimate job
	// read, as its own result counted it: the events the final round
	// injected and the bytes it delivered, or the events and bytes the
	// estimator priced — a cache hit never walks the trace again. TraceBytes
	// is the payload total the sweep turns into a throughput objective.
	TraceEvents int
	TraceBytes  int64
}

// ExperimentFunc dispatches one OpExperiment job; the service wires it to
// the experiment registry.
type ExperimentFunc func(ctx context.Context, id string) (*metrics.Table, error)

// Runner executes jobs through one shared session.
type Runner struct {
	// Session memoizes and single-flights simulations. Session methods are
	// nil-safe, so a nil session runs every job uncached — the same
	// degradation the rest of the library offers. OpExperiment only needs
	// Experiment.
	Session *onocsim.Session
	// Experiment runs OpExperiment jobs; nil rejects them.
	Experiment ExperimentFunc
}

// Run executes one job. Deduplicated flights self-heal: when the job is
// deduplicated onto another caller's in-flight computation and that caller
// disconnects (killing the flight with a cancellation or a park), the
// still-live job retries the — now vacant — flight itself, up to twice; a
// retried correction resumes from the parked run's stashed state rather
// than from scratch. A park caused by this job's own lifecycle (context
// ended) is terminal and returns the partial result with status "parked".
func (r *Runner) Run(ctx context.Context, j Job) (Result, error) {
	if err := j.Validate(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	for attempt := 0; ; attempt++ {
		res, err := r.runOnce(ctx, j)
		if err == nil {
			res.Status = "ok"
			res.Elapsed = time.Since(start)
			return res, nil
		}
		if errors.Is(err, onocsim.ErrParked) && res.Table != nil {
			// This job's own computation parked and carried its partial
			// trajectory out; report it rather than retrying a dying run.
			res.Status = "parked"
			res.Elapsed = time.Since(start)
			return res, nil
		}
		retryable := errors.Is(err, context.Canceled) || errors.Is(err, onocsim.ErrParked)
		if !retryable || attempt >= 2 || ctx.Err() != nil {
			return Result{}, err
		}
	}
}

// runOnce dispatches one attempt. For a parked correction with a non-empty
// trajectory it returns the rendered partial table alongside the error, so
// Run can distinguish "my own run parked" from "the flight I waited on died".
func (r *Runner) runOnce(ctx context.Context, j Job) (Result, error) {
	switch j.Op {
	case OpExec:
		res, err := r.Session.RunExecutionDrivenContext(ctx, j.Config, j.Kind)
		if err != nil {
			return Result{}, err
		}
		return Result{Table: report.Exec(j.Config, j.Kind, res), Truth: &res}, nil

	case OpStudy:
		st, err := r.Session.RunStudyContext(ctx, j.Config, j.Kind)
		if err != nil {
			return Result{}, err
		}
		return Result{Table: report.Study(j.Config, j.Kind, st), Study: st}, nil

	case OpCorrect:
		if j.TracePath != "" {
			src, err := onocsim.OpenTraceFile(j.TracePath)
			if err != nil {
				return Result{}, err
			}
			res, wall, err := r.Session.RunSelfCorrectionStreamContext(ctx, j.Config, src, j.Kind)
			return correctionResult(j, res, wall, err)
		}
		tr, _, err := r.Session.CaptureTraceContext(ctx, j.Config, onocsim.IdealNet)
		if err != nil {
			return Result{}, err
		}
		res, wall, err := r.Session.RunSelfCorrectionContext(ctx, j.Config, tr, j.Kind)
		return correctionResult(j, res, wall, err)

	case OpEstimate:
		tr, _, err := r.Session.CaptureTraceContext(ctx, j.Config, onocsim.IdealNet)
		if err != nil {
			return Result{}, err
		}
		res, wall, err := r.Session.Estimate(j.Config, tr, j.Kind)
		if err != nil {
			return Result{}, err
		}
		return Result{
			Table:       report.Estimate(j.Config, j.Kind, res, wall),
			Estimate:    &res,
			TraceEvents: len(res.Latency),
			TraceBytes:  int64(res.Bytes),
		}, nil

	case OpExperiment:
		if r.Experiment == nil {
			return Result{}, fmt.Errorf("job: no experiment dispatcher installed")
		}
		t, err := r.Experiment(ctx, j.Experiment)
		if err != nil {
			return Result{}, err
		}
		return Result{Table: t}, nil

	default:
		return Result{}, fmt.Errorf("job: unknown op %q", j.Op)
	}
}

// correctionResult renders one correction attempt. A park that carried its
// partial trajectory out is rendered as such and returned with the error.
func correctionResult(j Job, res onocsim.CorrectionResult, wall time.Duration, err error) (Result, error) {
	parked := errors.Is(err, onocsim.ErrParked) && len(res.Iterations) > 0
	if err != nil && !parked {
		return Result{}, err
	}
	// A rendered correction completed at least one round, and every round
	// injects and delivers the whole trace.
	return Result{
		Table:       report.Correction(j.Config, j.Kind, res, wall, parked),
		Correction:  &res,
		TraceEvents: len(res.Final.Inject),
		TraceBytes:  int64(res.Final.NetStats.BytesDelivered),
	}, err
}
