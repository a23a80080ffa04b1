// Package sweep expands a parameterized design grid into fingerprinted jobs,
// prunes dominated regions with the analytic model before paying for
// simulation, and reduces the survivors to latency/throughput/power Pareto
// fronts. It is the first batch consumer of the internal/job pipeline: every
// arm is an ordinary Job routed through the same Session memoization and
// SlotScheduler admission classes the interactive front ends use, so a sweep
// shares cache entries with — and is fairly scheduled against — everything
// else in the process.
//
// The pipeline is three phases, all deterministic given the spec:
//
//  1. Expand: the axis cross product becomes labelled arms; arms whose
//     configs are observationally identical (the fingerprint normalization
//     masks axes a fabric cannot observe — an electrical mesh has no
//     wavelengths and no optical faults) collapse into one job with merged
//     labels, so the grid never pays twice for the same physics.
//  2. Prefilter: every unique job is priced with the closed-form analytic
//     estimate (light admission, no fabric ticks) plus a static power probe;
//     arms a margin worse than some other arm on every objective are pruned
//     without simulating.
//  3. Simulate: survivors run the self-correction loop (medium admission),
//     and the realized points reduce to a Pareto front.
package sweep

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"

	"onocsim"
	"onocsim/internal/config"
	"onocsim/internal/fanout"
	"onocsim/internal/job"
	"onocsim/internal/metrics"
)

// Arm is one unique design point: a correction job plus every grid label
// that collapsed onto it.
type Arm struct {
	// Label is the canonical (lexically smallest) grid label.
	Label string
	// Labels lists every grid cell this job serves, sorted.
	Labels []string
	// Job is the self-correction job the arm runs if it survives pruning.
	Job job.Job
	// Key is the session-level identity used for collapsing, from
	// onocsim.SelfCorrectionKey.
	Key string
}

// Point is one realized design point in objective space.
type Point struct {
	// Label is the arm's canonical label.
	Label string `json:"label"`
	// LatencyCycles is the converged mean message latency (lower is
	// better).
	LatencyCycles float64 `json:"latency_cycles"`
	// ThroughputBpc is delivered payload bytes per makespan cycle (higher
	// is better).
	ThroughputBpc float64 `json:"throughput_bpc"`
	// PowerMW is the design's static power floor (lower is better).
	PowerMW float64 `json:"power_mw"`
}

// Dominates reports whether p is at least as good as q on every objective
// and strictly better on at least one.
func (p Point) Dominates(q Point) bool {
	if p.LatencyCycles > q.LatencyCycles || p.ThroughputBpc < q.ThroughputBpc || p.PowerMW > q.PowerMW {
		return false
	}
	return p.LatencyCycles < q.LatencyCycles || p.ThroughputBpc > q.ThroughputBpc || p.PowerMW < q.PowerMW
}

// Front extracts the Pareto-optimal subset: every returned point is an input
// point, no returned point dominates another, and every excluded point is
// dominated by some returned point. The result is sorted by (latency
// ascending, label ascending), like every sweep table.
func Front(points []Point) []Point {
	var front []Point
	for i, p := range points {
		dominated := false
		for j, q := range points {
			if i == j {
				continue
			}
			if q.Dominates(p) {
				dominated = true
				break
			}
			// Duplicate objective vectors dominate nobody; keep the
			// lexically first label so ties resolve deterministically.
			if !p.Dominates(q) && p.LatencyCycles == q.LatencyCycles &&
				p.ThroughputBpc == q.ThroughputBpc && p.PowerMW == q.PowerMW &&
				q.Label < p.Label {
				dominated = true
				break
			}
		}
		if !dominated {
			front = append(front, p)
		}
	}
	sortPoints(front)
	return front
}

func sortPoints(ps []Point) {
	sort.Slice(ps, func(i, j int) bool {
		if ps[i].LatencyCycles != ps[j].LatencyCycles {
			return ps[i].LatencyCycles < ps[j].LatencyCycles
		}
		return ps[i].Label < ps[j].Label
	})
}

// Expand materializes the spec's grid: one config per axis combination,
// collapsed by session-level identity into unique arms. The returned slice
// is sorted by canonical label and depends only on the spec.
func Expand(spec config.Sweep) ([]Arm, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	byKey := map[string]*Arm{}
	for _, kind := range spec.Networks {
		for _, cores := range spec.Cores {
			for _, wl := range spec.Wavelengths {
				for _, preset := range spec.Faults {
					for _, kern := range spec.Kernels {
						label := fmt.Sprintf("%s/%dc/%dλ/%s/%s", kind, cores, wl, preset, kern)
						cfg, err := armConfig(spec, kind, cores, wl, preset, kern)
						if err != nil {
							return nil, fmt.Errorf("sweep: arm %s: %w", label, err)
						}
						key, err := onocsim.SelfCorrectionKey(cfg, kind)
						if err != nil {
							return nil, fmt.Errorf("sweep: arm %s: %w", label, err)
						}
						if a, ok := byKey[key]; ok {
							a.Labels = append(a.Labels, label)
							continue
						}
						byKey[key] = &Arm{
							Label:  label,
							Labels: []string{label},
							Key:    key,
							Job: job.Job{
								Op:     job.OpCorrect,
								Config: cfg,
								Kind:   kind,
							},
						}
					}
				}
			}
		}
	}
	arms := make([]Arm, 0, len(byKey))
	for _, a := range byKey {
		sort.Strings(a.Labels)
		a.Label = a.Labels[0]
		a.Job.Config.Name = a.Label
		arms = append(arms, *a)
	}
	sort.Slice(arms, func(i, j int) bool { return arms[i].Label < arms[j].Label })
	return arms, nil
}

// armConfig builds one grid cell's config from the default baseline.
func armConfig(spec config.Sweep, kind config.NetworkKind, cores, wl int, preset, kern string) (onocsim.Config, error) {
	cfg := config.Default()
	cfg.Seed = spec.Seed
	cfg.Network = kind
	cfg.System.Cores = cores
	cfg.Optical.WavelengthsPerChannel = wl
	cfg.Workload.Kind = config.WorkloadKernel
	cfg.Workload.Kernel = kern
	if spec.Quick {
		cfg.Workload.Scale = 4
		cfg.Workload.Iterations = 2
	}
	f, err := config.FaultPreset(preset)
	if err != nil {
		return onocsim.Config{}, err
	}
	cfg.Faults = f
	if err := cfg.Validate(); err != nil {
		return onocsim.Config{}, err
	}
	return cfg, nil
}

// Options configures a sweep run.
type Options struct {
	// Session memoizes simulations and lets the estimate and simulate
	// phases share each arm's captured trace; nil creates a private
	// session for the run (with Progress installed on it).
	Session *onocsim.Session
	// Progress receives one ProgressSweepArm event per unique arm and
	// phase ("estimate", then "pruned" or "simulated"); nil disables.
	Progress onocsim.Progress
	// Sched admits arms (estimates light/1, simulations medium/2); nil
	// creates a private scheduler sized to the host.
	Sched *onocsim.SlotScheduler
}

// Result is one completed sweep: the grid accounting, every simulated point,
// and the rendered tables. It is its own wire form — the CLI's -format json
// and the daemon's /v1/sweeps reply both marshal this struct — and a
// deterministic function of the spec and the simulation results: no
// wall-clock ever enters it, so reruns and different front ends produce
// identical bytes.
type Result struct {
	// Name is the normalized spec's name.
	Name string `json:"name"`
	// Arms is the full grid size (axis cross product).
	Arms int `json:"arms"`
	// UniqueJobs counts arms after identity collapsing.
	UniqueJobs int `json:"unique_jobs"`
	// Pruned counts unique arms the analytic prefilter eliminated.
	Pruned int `json:"pruned"`
	// Simulated counts unique arms that ran the self-correction loop.
	Simulated int `json:"simulated"`
	// Points are the realized design points, sorted (latency, label).
	Points []Point `json:"points"`
	// FrontPoints is the Pareto-optimal subset of Points.
	FrontPoints []Point `json:"front_points"`
	// Front is the Pareto front rendered as a table.
	Front *metrics.Table `json:"front"`
	// Summary is the per-arm accounting table (every unique arm, its
	// phase outcome, and its analytic estimates).
	Summary *metrics.Table `json:"summary"`
}

// estimatedArm is one arm after the prefilter phase.
type estimatedArm struct {
	arm   Arm
	est   Point // analytic objective estimates, same axes as realized points
	prune bool
}

// Run executes the sweep pipeline. Estimates fan out first (light
// admission); the prune decision is a barrier (dominance is a property of
// the whole estimate set); survivors then fan out through simulation (medium
// admission). Both phases run one goroutine per arm on fanout.Each — scheduler
// admission is the only concurrency bound — so the first arm to fail, or ctx
// ending, stops the arms still queued and parks the corrections in flight.
func Run(ctx context.Context, spec config.Sweep, opts Options) (*Result, error) {
	spec.Normalize()
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	// A sweep without a caller-supplied session gets a private one: the
	// estimate and simulate phases share each arm's captured trace, and
	// identical arms across reruns memoize, so running uncached would
	// capture everything twice.
	if opts.Session == nil {
		opts.Session = onocsim.NewSession("")
		if opts.Progress != nil {
			opts.Session.SetProgress(opts.Progress)
		}
	}
	sched := opts.Sched
	if sched == nil {
		sched = onocsim.NewSlotScheduler(2 * runtime.GOMAXPROCS(0))
	}
	runner := &job.Runner{Session: opts.Session}

	arms, err := Expand(spec)
	if err != nil {
		return nil, err
	}

	// Phase 1: analytic prefilter, one light job per unique arm.
	ests := make([]estimatedArm, len(arms))
	err = fanout.Each(ctx, len(arms), func(ctx context.Context, i int) error {
		a := arms[i]
		est := job.Job{Op: job.OpEstimate, Config: a.Job.Config, Kind: a.Job.Kind}
		class, cost := est.Admission()
		if err := sched.Acquire(ctx, class, cost); err != nil {
			return err
		}
		defer sched.Release(cost)
		res, err := runner.Run(ctx, est)
		if err != nil {
			return fmt.Errorf("sweep: estimate %s: %w", a.Label, err)
		}
		power, err := onocsim.StaticPowerMW(a.Job.Config, a.Job.Kind)
		if err != nil {
			return fmt.Errorf("sweep: power %s: %w", a.Label, err)
		}
		ests[i] = estimatedArm{arm: a, est: Point{
			Label:         a.Label,
			LatencyCycles: res.Estimate.MeanLatency,
			ThroughputBpc: throughput(res.TraceBytes, int64(res.Estimate.Makespan)),
			PowerMW:       power,
		}}
		emit(opts.Progress, a.Label, "estimate")
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Barrier: prune needs the whole estimate set. An arm is pruned when
	// some other arm's estimate beats it by the margin on latency and
	// throughput and is no worse on power — close calls always simulate.
	if m := spec.PruneMargin; m >= 0 {
		for i := range ests {
			for j := range ests {
				if i == j {
					continue
				}
				b, a := ests[j].est, ests[i].est
				if b.LatencyCycles*(1+m) <= a.LatencyCycles &&
					b.ThroughputBpc >= a.ThroughputBpc*(1+m) &&
					b.PowerMW <= a.PowerMW {
					ests[i].prune = true
					break
				}
			}
		}
	}

	// Phase 2: simulate survivors, one medium job per arm.
	points := make([]Point, len(ests))
	pruned := 0
	for i := range ests {
		if ests[i].prune {
			pruned++
			emit(opts.Progress, ests[i].arm.Label, "pruned")
		}
	}
	err = fanout.Each(ctx, len(ests), func(ctx context.Context, i int) error {
		if ests[i].prune {
			return nil
		}
		a := ests[i].arm
		class, cost := a.Job.Admission()
		if err := sched.Acquire(ctx, class, cost); err != nil {
			return err
		}
		defer sched.Release(cost)
		res, err := runner.Run(ctx, a.Job)
		if err != nil {
			return fmt.Errorf("sweep: simulate %s: %w", a.Label, err)
		}
		if res.Status != "ok" {
			return fmt.Errorf("sweep: simulate %s: run %s", a.Label, res.Status)
		}
		points[i] = Point{
			Label:         a.Label,
			LatencyCycles: res.Correction.Final.MeanLatency,
			ThroughputBpc: throughput(res.TraceBytes, int64(res.Correction.Final.Makespan)),
			PowerMW:       ests[i].est.PowerMW,
		}
		emit(opts.Progress, a.Label, "simulated")
		return nil
	})
	if err != nil {
		return nil, err
	}

	out := &Result{
		Name:       spec.Name,
		Arms:       spec.Arms(),
		UniqueJobs: len(arms),
		Pruned:     pruned,
		Simulated:  len(arms) - pruned,
	}
	for i := range points {
		if !ests[i].prune {
			out.Points = append(out.Points, points[i])
		}
	}
	sortPoints(out.Points)
	out.FrontPoints = Front(out.Points)
	out.Front = frontTable(spec, out)
	out.Summary = summaryTable(spec, ests)
	return out, nil
}

// throughput converts delivered payload bytes over a makespan into
// bytes/cycle; a degenerate makespan yields zero rather than infinity.
func throughput(bytes, makespan int64) float64 {
	if makespan <= 0 {
		return 0
	}
	return float64(bytes) / float64(makespan)
}

func emit(p onocsim.Progress, label, phase string) {
	if p == nil {
		return
	}
	p.Event(onocsim.ProgressEvent{Kind: onocsim.ProgressSweepArm, Sim: label, Op: phase})
}

// frontTable renders the Pareto front. Columns mirror the Point fields; no
// wall-clock cell ever appears, keeping reruns byte-identical.
func frontTable(spec config.Sweep, r *Result) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Pareto front: %s", spec.Name),
		"arm", "latency", "throughput", "power",
	)
	for _, p := range r.FrontPoints {
		t.AddCells(
			metrics.String(p.Label),
			metrics.Float(p.LatencyCycles, 2, "cyc"),
			metrics.Float(p.ThroughputBpc, 3, "B/cyc"),
			metrics.Float(p.PowerMW, 2, "mW"),
		)
	}
	t.Note("%d grid arms -> %d unique jobs; %d pruned by analytic prefilter, %d simulated, %d on front",
		r.Arms, r.UniqueJobs, r.Pruned, r.Simulated, len(r.FrontPoints))
	return t
}

// summaryTable renders per-arm accounting: every unique arm, how many grid
// cells it covers, its analytic estimates, and its phase outcome.
func summaryTable(spec config.Sweep, ests []estimatedArm) *metrics.Table {
	t := metrics.NewTable(
		fmt.Sprintf("Sweep arms: %s", spec.Name),
		"arm", "cells", "est latency", "est throughput", "power", "outcome",
	)
	for _, e := range ests {
		outcome := "simulated"
		if e.prune {
			outcome = "pruned"
		}
		t.AddCells(
			metrics.String(e.arm.Label),
			metrics.Int(int64(len(e.arm.Labels)), ""),
			metrics.Float(e.est.LatencyCycles, 2, "cyc"),
			metrics.Float(e.est.ThroughputBpc, 3, "B/cyc"),
			metrics.Float(e.est.PowerMW, 2, "mW"),
			metrics.String(outcome),
		)
	}
	t.Note("prune margin %.2f; estimates are analytic (no fabric ticks)", spec.PruneMargin)
	return t
}

// WriteJSON writes the result indented, as the CLI prints it.
func (r *Result) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
