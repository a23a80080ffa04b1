package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"onocsim"
	"onocsim/internal/metrics"
)

// CostClass coarsely ranks an experiment's simulation cost; the parallel
// scheduler uses it (together with Needs) as a launch-order hint, and
// `expreport -list` surfaces it so users can budget a run.
type CostClass string

const (
	// CostLight experiments are analytic or near-instant (no full-system
	// simulation).
	CostLight CostClass = "light"
	// CostMedium experiments run a handful of simulations.
	CostMedium CostClass = "medium"
	// CostHeavy experiments sweep many full-system simulations.
	CostHeavy CostClass = "heavy"
)

// Need names a family of shared simulation results an experiment consumes
// through the session cache. Declaring needs replaces the implicit
// session-dedup knowledge that used to live in comments: the scheduler
// launches experiments whose needs are most widely shared first, so the
// shared results are computed (once) as early as possible and later
// experiments find settled cache entries instead of queueing as waiters.
type Need string

const (
	// NeedStudies is the full methodology study (capture, ground truth,
	// three replays) of every kernel at baseline options.
	NeedStudies Need = "kernel-studies"
	// NeedIdealCapture is the per-kernel trace capture on the ideal
	// reference fabric.
	NeedIdealCapture Need = "ideal-capture"
	// NeedOpticalTruth is the per-kernel execution-driven ground truth on
	// the optical crossbar.
	NeedOpticalTruth Need = "optical-truth"
	// NeedElectricalTruth is the per-kernel execution-driven ground truth
	// on the electrical mesh.
	NeedElectricalTruth Need = "electrical-truth"
	// NeedHybridTruth is the per-kernel execution-driven ground truth on
	// the hybrid fabric.
	NeedHybridTruth Need = "hybrid-truth"
)

// Descriptor declares one experiment: identity, prose, cost, the shared
// simulations it consumes, and how to run it. The registry of descriptors
// is the single source the scheduler, `-exp` resolution, `-list`, and the
// renderers iterate — adding an experiment is adding a descriptor.
type Descriptor struct {
	// ID is the experiment identifier accepted by cmd/expreport ("r1").
	ID string
	// Title is the headline of the experiment's table.
	Title string
	// Summary is a one-line description for listings.
	Summary string
	// CostClass coarsely ranks the experiment's simulation cost.
	CostClass CostClass
	// Needs lists the shared simulation families the experiment consumes.
	Needs []Need
	// Run produces the experiment's table.
	Run func(context.Context, Options) (*metrics.Table, error)
}

// registry is the canonical experiment list, in report order. R1–R8
// reconstruct the paper's evaluation; R9–R19 are extensions.
var registry = []Descriptor{
	{
		ID:        "r1",
		Title:     "Accuracy of trace methodologies vs execution-driven ONOC simulation",
		Summary:   "headline accuracy: naive replay, SCTM and coupled replay vs ground truth, per kernel",
		CostClass: CostHeavy,
		Needs:     []Need{NeedStudies, NeedIdealCapture, NeedOpticalTruth},
		Run:       R1Accuracy,
	},
	{
		ID:        "r2",
		Title:     "Simulation cost (host milliseconds)",
		Summary:   "host wall-clock of each methodology and SCTM's speedup over execution-driven",
		CostClass: CostHeavy,
		Needs:     []Need{NeedStudies, NeedIdealCapture, NeedOpticalTruth},
		Run:       R2SimTime,
	},
	{
		ID:        "r3",
		Title:     "Self-correction convergence (one series per kernel)",
		Summary:   "per-round schedule delta and makespan error of the correction loop",
		CostClass: CostMedium,
		Needs:     []Need{NeedIdealCapture, NeedOpticalTruth},
		Run:       R3Convergence,
	},
	{
		ID:        "r4",
		Title:     "Load vs latency, electrical mesh vs optical crossbar",
		Summary:   "synthetic traffic sweeps on both fabrics",
		CostClass: CostMedium,
		Needs:     nil,
		Run:       R4LoadLatency,
	},
	{
		ID:        "r5",
		Title:     "Case study: application completion time, electrical vs optical",
		Summary:   "kernel completion time execution-driven on both fabrics",
		CostClass: CostMedium,
		Needs:     []Need{NeedElectricalTruth, NeedOpticalTruth},
		Run:       R5CaseStudy,
	},
	{
		ID:        "r6",
		Title:     "Network power (mW) over kernel workloads",
		Summary:   "static/dynamic power breakdown per kernel and fabric",
		CostClass: CostMedium,
		Needs:     []Need{NeedElectricalTruth, NeedOpticalTruth},
		Run:       R6Power,
	},
	{
		ID:        "r7",
		Title:     "SCTM scalability with core count (stencil kernel)",
		Summary:   "SCTM error and cost versus core count",
		CostClass: CostHeavy,
		Needs:     []Need{NeedStudies},
		Run:       R7Scaling,
	},
	{
		ID:        "r8",
		Title:     "Why dependencies matter: SCTM error with dependency classes ablated",
		Summary:   "correction accuracy with sync or causal edges disabled",
		CostClass: CostMedium,
		Needs:     []Need{NeedIdealCapture, NeedOpticalTruth},
		Run:       R8Ablation,
	},
	{
		ID:        "r9",
		Title:     "MWSR vs SWMR optical crossbar (extension)",
		Summary:   "token-arbitrated vs broadcast crossbar on makespan and power",
		CostClass: CostMedium,
		Needs:     []Need{NeedOpticalTruth},
		Run:       R9Architectures,
	},
	{
		ID:        "r10",
		Title:     "SCTM accuracy vs capture fabric (extension)",
		Summary:   "sensitivity of the correction to the fabric the trace was captured on",
		CostClass: CostMedium,
		Needs:     []Need{NeedIdealCapture, NeedOpticalTruth},
		Run:       R10CaptureFabric,
	},
	{
		ID:        "r11",
		Title:     "Correction-loop damping sweep (extension)",
		Summary:   "rounds to convergence and final error across damping factors",
		CostClass: CostMedium,
		Needs:     []Need{NeedIdealCapture, NeedOpticalTruth},
		Run:       R11Damping,
	},
	{
		ID:        "r12",
		Title:     "Path-adaptive hybrid NoC (extension)",
		Summary:   "makespan versus the optical-distance threshold of the hybrid fabric",
		CostClass: CostMedium,
		Needs:     []Need{NeedElectricalTruth, NeedOpticalTruth, NeedHybridTruth},
		Run:       R12Hybrid,
	},
	{
		ID:        "r13",
		Title:     "Photonic loss-budget sensitivity (extension)",
		Summary:   "laser power versus waveguide/ring losses and node count (analytic)",
		CostClass: CostLight,
		Needs:     nil,
		Run:       R13Photonics,
	},
	{
		ID:        "r14",
		Title:     "Core-speed what-if from one trace (extension)",
		Summary:   "scaled-gap prediction from one capture vs re-simulated ground truth",
		CostClass: CostMedium,
		Needs:     []Need{NeedIdealCapture, NeedOpticalTruth},
		Run:       R14WhatIf,
	},
	{
		ID:        "r15",
		Title:     "Fabric league table (extension)",
		Summary:   "every kernel on all six fabrics, execution-driven",
		CostClass: CostHeavy,
		Needs:     []Need{NeedElectricalTruth, NeedOpticalTruth, NeedHybridTruth},
		Run:       R15League,
	},
	{
		ID:        "r16",
		Title:     "Seed sensitivity of methodology accuracy (extension)",
		Summary:   "accuracy mean ± 95% CI across independent seeds with compute jitter",
		CostClass: CostHeavy,
		Needs:     nil,
		Run:       R16Seeds,
	},
	{
		ID:        "r17",
		Title:     "Memory-bound traffic and the optical advantage (extension)",
		Summary:   "optical:electrical ratio in cache-resident vs memory-bound regimes",
		CostClass: CostMedium,
		Needs:     []Need{NeedElectricalTruth, NeedOpticalTruth},
		Run:       R17Memory,
	},
	{
		ID:        "r18",
		Title:     "Fault injection: degraded throughput and self-correction accuracy (extension)",
		Summary:   "truth slowdown and replay accuracy under the fault presets, with event counters",
		CostClass: CostMedium,
		Needs:     []Need{NeedIdealCapture, NeedOpticalTruth, NeedHybridTruth},
		Run:       R18Faults,
	},
	{
		ID:        "r19",
		Title:     "Analytical fast path: seeding savings and screening error (extension)",
		Summary:   "self-correction rounds and wall clock under analytic vs zero-load seeding, plus closed-form error bands",
		CostClass: CostMedium,
		Needs:     []Need{NeedIdealCapture},
		Run:       R19Seeding,
	},
	{
		ID:        "r20",
		Title:     "Design-space sweep: Pareto front over latency, throughput and power (extension)",
		Summary:   "fabric x radix x WDM x faults x kernel grid through the job pipeline, analytically prefiltered, reduced to Pareto fronts",
		CostClass: CostHeavy,
		Needs:     []Need{NeedIdealCapture},
		Run:       R20DesignSpace,
	},
}

// Registry returns the experiment descriptors in canonical report order.
// The returned slice is a copy; descriptors themselves are shared.
func Registry() []Descriptor {
	return append([]Descriptor(nil), registry...)
}

// Lookup finds an experiment descriptor by id.
func Lookup(id string) (Descriptor, bool) {
	for _, d := range registry {
		if d.ID == id {
			return d, true
		}
	}
	return Descriptor{}, false
}

// Names lists the experiment identifiers in canonical order.
func Names() []string {
	names := make([]string, len(registry))
	for i, d := range registry {
		names[i] = d.ID
	}
	return names
}

// Known reports whether id identifies a registered experiment.
func Known(id string) bool {
	_, ok := Lookup(id)
	return ok
}

// ByName runs one experiment by its identifier.
func ByName(ctx context.Context, id string, o Options) (*metrics.Table, error) {
	d, ok := Lookup(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %v)", id, Names())
	}
	return runDescriptor(ctx, d, o)
}

// runDescriptor runs one experiment, reporting start/finish to the progress
// observer when one is configured.
func runDescriptor(ctx context.Context, d Descriptor, o Options) (*metrics.Table, error) {
	if o.Progress == nil {
		return d.Run(ctx, o)
	}
	o.Progress.Event(onocsim.ProgressEvent{
		Kind: onocsim.ProgressExperimentStart, Experiment: d.ID, Title: d.Title,
	})
	start := time.Now()
	t, err := d.Run(ctx, o)
	o.Progress.Event(onocsim.ProgressEvent{
		Kind: onocsim.ProgressExperimentDone, Experiment: d.ID, Err: err, Elapsed: time.Since(start),
	})
	return t, err
}

// All runs every registered experiment and returns the tables in canonical
// registry order. Sequentially by default; with o.Parallel the experiments
// fan out concurrently — actual simulation concurrency stays bounded by the
// library's simulation-slot semaphore. Either way, a Session is created for
// the run when the caller supplied none, so the shared simulations each
// experiment declares in Needs are computed once and reused (tables are
// byte-identical with or without the session, except that cached wall-clock
// cells report the one computation that actually ran).
func All(ctx context.Context, o Options) ([]*metrics.Table, error) {
	if o.Session == nil {
		o.Session = onocsim.NewSession("")
		if o.Progress != nil {
			o.Session.SetProgress(o.Progress)
		}
	}
	if o.Parallel {
		return allParallel(ctx, o)
	}
	out := make([]*metrics.Table, 0, len(registry))
	for _, d := range registry {
		t, err := runDescriptor(ctx, d, o)
		if err != nil {
			return out, fmt.Errorf("experiments: %s: %w", d.ID, err)
		}
		out = append(out, t)
	}
	return out, nil
}

// scheduleOrder returns registry indices in launch order for the parallel
// scheduler: experiments whose Needs are shared by the most other
// experiments launch first (ties broken heavy-first, then registry order).
// Launching the producers of widely shared simulations early means those
// results settle in the cache soonest, so later experiments read settled
// entries instead of piling up as single-flight waiters. Results are
// byte-identical for any order; only scheduling quality changes.
func scheduleOrder() []int {
	shared := map[Need]int{}
	for _, d := range registry {
		for _, n := range d.Needs {
			shared[n]++
		}
	}
	costRank := map[CostClass]int{CostHeavy: 2, CostMedium: 1, CostLight: 0}
	score := make([]int, len(registry))
	for i, d := range registry {
		for _, n := range d.Needs {
			score[i] += shared[n] - 1
		}
	}
	order := make([]int, len(registry))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		if score[ia] != score[ib] {
			return score[ia] > score[ib]
		}
		return costRank[registry[ia].CostClass] > costRank[registry[ib].CostClass]
	})
	return order
}

// allParallel is the parallel experiment scheduler: every experiment runs on
// its own goroutine, launched in Needs-aware order (see scheduleOrder), and
// tables are collected in canonical registry order. The per-experiment
// goroutines are cheap coordinators — all heavy work happens in the leaf
// simulation operations, which both bound concurrency (each holds one
// process-wide simulation slot for its timed region) and deduplicate
// (concurrent requests for one result single-flight through the session).
// The first error wins, in canonical experiment order so failures are
// deterministic.
func allParallel(ctx context.Context, o Options) ([]*metrics.Table, error) {
	tables := make([]*metrics.Table, len(registry))
	errs := make([]error, len(registry))
	var wg sync.WaitGroup
	for _, i := range scheduleOrder() {
		i := i
		d := registry[i]
		wg.Add(1)
		go func() {
			defer wg.Done()
			tables[i], errs[i] = runDescriptor(ctx, d, o)
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("experiments: %s: %w", registry[i].ID, err)
		}
	}
	return tables, nil
}
