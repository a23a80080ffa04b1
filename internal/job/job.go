// Package job defines the one typed request shape for one simulation. Before
// it existed the same triple — an operation, a validated config, a fabric
// kind — was re-expressed independently by the onocsim CLI's mode switch, the
// onocsimd service's request decoding and admission pricing, and the batch
// consumers that want to enqueue hundreds of runs at once. A Job names that
// triple once; New builds it from a front end's words; a Runner executes it
// through a shared Session (memoization, single-flight dedup, disk layer) and
// returns both the rendered table the front ends print and the typed result
// values batch consumers aggregate.
//
// A job is exactly one simulation. The two batches — a registry experiment
// and a design-space sweep — are consumers of this package (a sweep arm is a
// Job; experiments call the Session directly), not operations of it.
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
	// OpEstimate prices the config's kernel trace (or TracePath) on the
	// target fabric with the closed-form contention model.
	OpEstimate Op = "estimate"
)

// Job is one typed simulation request: the single shape CLI flags, service
// request bodies and sweep grid arms all reduce to.
type Job struct {
	// Op selects the operation.
	Op Op
	// Config is the full validated configuration.
	Config onocsim.Config
	// Kind is the target fabric.
	Kind onocsim.NetworkKind
	// TracePath optionally replaces the config's captured kernel trace with
	// a stored binary trace file, streamed out-of-core and keyed by content
	// digest (OpCorrect and OpEstimate). This is how the service runs big
	// tenant traces without materializing them.
	TracePath string
}

// New builds the job a front end's request describes. op and network arrive
// as the request's own words (a flag, a JSON field); an empty network keeps
// the config document's own. tracePath is empty unless a stored trace replaces
// the captured one. This is the one place those words are checked, so every
// front end that builds its job here answers the same document the same way.
func New(op, network string, cfg onocsim.Config, tracePath string) (Job, error) {
	if network != "" {
		cfg.Network = onocsim.NetworkKind(network)
	}
	j := Job{Op: Op(op), Config: cfg, Kind: cfg.Network, TracePath: tracePath}
	return j, j.Validate()
}

// Validate checks the job is executable before any admission or simulation
// is paid for.
func (j Job) Validate() error {
	switch j.Op {
	case OpExec, OpStudy, OpCorrect, OpEstimate:
	default:
		return fmt.Errorf("job: unknown op %q (want exec, study, correct or estimate)", j.Op)
	}
	if j.TracePath != "" && (j.Op == OpExec || j.Op == OpStudy) {
		return fmt.Errorf("job: trace path is not supported by op %s (it runs the config's kernel)", j.Op)
	}
	return onocsim.ValidateNetworkKind(j.Config, j.Kind)
}

// Admission prices the job for a SlotScheduler: the class its operation
// implies and the units one admission Acquire of that class claims.
func (j Job) Admission() (onocsim.SlotClass, int) {
	class := onocsim.SlotMedium // exec, correct
	switch j.Op {
	case OpStudy:
		class = onocsim.SlotHeavy
	case OpEstimate:
		class = onocsim.SlotLight
	}
	return class, class.Units()
}

// Fingerprint returns the job config's canonical fingerprint — the identity
// the service reports in result envelopes.
func (j Job) Fingerprint() (string, error) { return j.Config.Fingerprint() }

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
	// Elapsed is the host time the job took, near zero on a cache hit. It is
	// the table's one host-time cell (the exec, correct and estimate tables'
	// "host wall time" row) and the service envelope's elapsed_ms.
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

// Runner executes jobs through one shared session.
type Runner struct {
	// Session memoizes and single-flights simulations. Session methods are
	// nil-safe, so a nil session runs every job uncached — the same
	// degradation the rest of the library offers.
	Session *onocsim.Session
}

// Run executes one job. A park caused by this job's own lifecycle (its
// context ended mid-correction) is not an error: the partial trajectory comes
// back with status "parked". A flight that died of another caller's
// cancellation never reaches here — the session retries it (see
// onocsim.Session). The table is rendered last, so its host-time row is the
// job's own Elapsed.
func (r *Runner) Run(ctx context.Context, j Job) (Result, error) {
	if err := j.Validate(); err != nil {
		return Result{}, err
	}
	start := time.Now()
	res, err := r.dispatch(ctx, j)
	switch {
	case err == nil:
		res.Status = "ok"
	case errors.Is(err, onocsim.ErrParked) && res.Correction != nil:
		res.Status = "parked"
	default:
		return Result{}, err
	}
	res.Elapsed = time.Since(start)
	res.Table = render(j, res)
	return res, nil
}

// dispatch runs the job's operation. For a parked correction with a non-empty
// trajectory it returns the partial result alongside the error: only the
// caller whose own computation parked gets one.
func (r *Runner) dispatch(ctx context.Context, j Job) (Result, error) {
	switch j.Op {
	case OpExec:
		res, err := r.Session.RunExecutionDrivenContext(ctx, j.Config, j.Kind)
		return Result{Truth: &res}, err

	case OpStudy:
		st, err := r.Session.RunStudyContext(ctx, j.Config, j.Kind)
		return Result{Study: st}, err
	}
	// Correct and estimate read a trace: the stored file TracePath names,
	// streamed, or the captured kernel.
	var src onocsim.TraceSource
	var err error
	if j.TracePath != "" {
		src, err = onocsim.OpenTraceFile(j.TracePath)
	} else {
		src, _, err = r.Session.CaptureTraceContext(ctx, j.Config, onocsim.IdealNet)
	}
	if err != nil {
		return Result{}, err
	}
	if j.Op == OpCorrect {
		res, err := r.Session.RunSelfCorrectionContext(ctx, j.Config, src, j.Kind)
		if err != nil && !(errors.Is(err, onocsim.ErrParked) && len(res.Iterations) > 0) {
			return Result{}, err
		}
		// A returned correction completed at least one round, and every round
		// injects and delivers the whole trace.
		return Result{
			Correction:  &res,
			TraceEvents: len(res.Final.Inject),
			TraceBytes:  int64(res.Final.NetStats.BytesDelivered),
		}, err
	}
	res, err := r.Session.Estimate(j.Config, src, j.Kind)
	if err != nil {
		return Result{}, err
	}
	return Result{
		Estimate:    &res,
		TraceEvents: len(res.Latency),
		TraceBytes:  int64(res.Bytes),
	}, nil
}

// render builds the report table of a finished (or parked) job.
func render(j Job, res Result) *metrics.Table {
	switch {
	case res.Truth != nil:
		return report.Exec(j.Config, j.Kind, *res.Truth, res.Elapsed)
	case res.Study != nil:
		return report.Study(j.Config, j.Kind, res.Study)
	case res.Correction != nil:
		return report.Correction(j.Config, j.Kind, *res.Correction, res.Elapsed, res.Status == "parked")
	default:
		return report.Estimate(j.Config, j.Kind, *res.Estimate, res.Elapsed)
	}
}
