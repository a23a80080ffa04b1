package experiments

import (
	"context"
	"fmt"
	"time"

	"onocsim"
	"onocsim/internal/fanout"
	"onocsim/internal/metrics"
)

// Descriptor declares one experiment: identity, prose, cost, and how to run
// it. The registry of descriptors is the single source All, `-exp`
// resolution, `-list`, and the renderers iterate — adding an experiment is
// adding a descriptor.
type Descriptor struct {
	// ID is the experiment identifier accepted by cmd/expreport ("r1").
	ID string
	// Title is the headline of the experiment's table.
	Title string
	// Summary is a one-line description for listings.
	Summary string
	// CostClass coarsely ranks the experiment's simulation cost — light:
	// analytic or near-instant, medium: a handful of simulations, heavy: a
	// sweep of full-system simulations. The service admits an experiment
	// request at this class and `expreport -list` prints it.
	CostClass onocsim.SlotClass
	// Run produces the experiment's table.
	Run func(context.Context, Options) (*metrics.Table, error)
}

// registry is the canonical experiment list, in report order. R1–R8
// reconstruct the paper's evaluation; R9–R20 are extensions.
var registry = []Descriptor{
	{
		ID:        "r1",
		Title:     "Accuracy of trace methodologies vs execution-driven ONOC simulation",
		Summary:   "headline accuracy: naive replay, SCTM and coupled replay vs ground truth, per kernel",
		CostClass: onocsim.SlotHeavy,
		Run:       R1Accuracy,
	},
	{
		ID:        "r2",
		Title:     "Simulation cost (simulated cycles)",
		Summary:   "simulated cycles of each methodology, SCTM's cost multiple over exec-driven and naive replay, and the break-even design count",
		CostClass: onocsim.SlotHeavy,
		Run:       R2SimTime,
	},
	{
		ID:        "r3",
		Title:     "Self-correction convergence (one series per kernel)",
		Summary:   "per-round schedule delta and makespan error of the correction loop",
		CostClass: onocsim.SlotMedium,
		Run:       R3Convergence,
	},
	{
		ID:        "r4",
		Title:     "Load vs latency, electrical mesh vs optical crossbar",
		Summary:   "synthetic traffic sweeps on both fabrics",
		CostClass: onocsim.SlotMedium,
		Run:       R4LoadLatency,
	},
	{
		ID:        "r5",
		Title:     "Case study: application completion time, electrical vs optical",
		Summary:   "kernel completion time execution-driven on both fabrics",
		CostClass: onocsim.SlotMedium,
		Run:       R5CaseStudy,
	},
	{
		ID:        "r6",
		Title:     "Network power (mW) over kernel workloads",
		Summary:   "static/dynamic power breakdown per kernel and fabric",
		CostClass: onocsim.SlotMedium,
		Run:       R6Power,
	},
	{
		ID:        "r7",
		Title:     "SCTM scalability with core count (stencil kernel)",
		Summary:   "SCTM error and simulated-cycle cost versus core count",
		CostClass: onocsim.SlotHeavy,
		Run:       R7Scaling,
	},
	{
		ID:        "r8",
		Title:     "Why dependencies matter: SCTM error with dependency classes ablated",
		Summary:   "correction accuracy with sync or causal edges disabled",
		CostClass: onocsim.SlotMedium,
		Run:       R8Ablation,
	},
	{
		ID:        "r9",
		Title:     "MWSR vs SWMR optical crossbar (extension)",
		Summary:   "token-arbitrated vs broadcast crossbar on makespan and power",
		CostClass: onocsim.SlotMedium,
		Run:       R9Architectures,
	},
	{
		ID:        "r10",
		Title:     "SCTM accuracy vs capture fabric (extension)",
		Summary:   "sensitivity of the correction to the fabric the trace was captured on",
		CostClass: onocsim.SlotMedium,
		Run:       R10CaptureFabric,
	},
	{
		ID:        "r12",
		Title:     "Path-adaptive hybrid NoC (extension)",
		Summary:   "makespan versus the optical-distance threshold of the hybrid fabric",
		CostClass: onocsim.SlotMedium,
		Run:       R12Hybrid,
	},
	{
		ID:        "r13",
		Title:     "Photonic loss-budget sensitivity (extension)",
		Summary:   "laser power versus waveguide/ring losses and node count (analytic)",
		CostClass: onocsim.SlotLight,
		Run:       R13Photonics,
	},
	{
		ID:        "r14",
		Title:     "Core-speed what-if from one trace (extension)",
		Summary:   "scaled-gap prediction from one capture vs re-simulated ground truth",
		CostClass: onocsim.SlotMedium,
		Run:       R14WhatIf,
	},
	{
		ID:        "r15",
		Title:     "Fabric league table (extension)",
		Summary:   "every kernel on all six fabrics, execution-driven",
		CostClass: onocsim.SlotHeavy,
		Run:       R15League,
	},
	{
		ID:        "r16",
		Title:     "Seed sensitivity of methodology accuracy (extension)",
		Summary:   "accuracy mean ± 95% CI across independent seeds with compute jitter",
		CostClass: onocsim.SlotHeavy,
		Run:       R16Seeds,
	},
	{
		ID:        "r17",
		Title:     "Memory-bound traffic and the optical advantage (extension)",
		Summary:   "optical:electrical ratio in cache-resident vs memory-bound regimes",
		CostClass: onocsim.SlotMedium,
		Run:       R17Memory,
	},
	{
		ID:        "r18",
		Title:     "Fault injection: degraded throughput and self-correction accuracy (extension)",
		Summary:   "truth slowdown and replay accuracy under the fault presets, with event counters",
		CostClass: onocsim.SlotMedium,
		Run:       R18Faults,
	},
	{
		ID:        "r19",
		Title:     "Round-0 seeding, zero-load vs coupled, and screening error (extension)",
		Summary:   "self-correction rounds and replayed events under zero-load vs coupled seeding, plus closed-form error bands",
		CostClass: onocsim.SlotMedium,
		Run:       R19Seeding,
	},
	{
		ID:        "r20",
		Title:     "Design-space sweep: Pareto front over latency, throughput and power (extension)",
		Summary:   "fabric x radix x WDM x faults x kernel grid through the job pipeline, analytically prefiltered, reduced to Pareto fronts",
		CostClass: onocsim.SlotHeavy,
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

// All runs every registered experiment side by side (fanout.Each, launched in
// registry order) and returns the tables in canonical registry order. The
// per-experiment goroutines are cheap coordinators: all heavy work happens in
// the leaf simulation operations, which both bound concurrency (each holds one
// process-wide simulation slot while it simulates) and deduplicate — a
// Session is created for the run when the caller supplied none, so the
// simulations experiments share are computed once (tables are byte-identical
// with or without the session). The first experiment to fail cancels the
// others and is the error returned.
func All(ctx context.Context, o Options) ([]*metrics.Table, error) {
	if o.Session == nil {
		o.Session = onocsim.NewSession("")
		if o.Progress != nil {
			o.Session.SetProgress(o.Progress)
		}
	}
	tables := make([]*metrics.Table, len(registry))
	err := fanout.Each(ctx, len(registry), func(ctx context.Context, i int) (err error) {
		d := registry[i]
		if tables[i], err = runDescriptor(ctx, d, o); err != nil {
			return fmt.Errorf("experiments: %s: %w", d.ID, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return tables, nil
}
