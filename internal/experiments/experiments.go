// Package experiments regenerates every table and figure of the
// reconstructed evaluation (R1–R20, see DESIGN.md §3). Each experiment is
// declared as a Descriptor in the registry (registry.go) — identity, cost
// class, and a Run function returning a typed metrics.Table; cmd/expreport
// renders them as ASCII, CSV or versioned JSON, and the root bench_test.go
// wraps each in a testing.B benchmark so `go test -bench` reproduces the
// whole evaluation.
package experiments

import (
	"context"
	"fmt"
	"strings"

	"onocsim"
	"onocsim/internal/config"
	"onocsim/internal/fanout"
	"onocsim/internal/metrics"
	"onocsim/internal/workload"
)

// Options scales the experiments.
type Options struct {
	// Seed drives all randomness.
	Seed uint64
	// Cores is the chip size for the kernel experiments (perfect square,
	// power of two for fft); 0 means 64.
	Cores int
	// Quick shrinks sweeps for use inside benchmarks and CI.
	Quick bool
	// Session memoizes simulation results across experiments: the same
	// (config, fabric, operation) triple — e.g. the optical ground truth
	// of a kernel, needed by R1, R3, R5, R6, R8… — is computed once and
	// shared. nil runs every simulation afresh (every call site is
	// nil-safe), except under All, which creates a session for the run.
	// Tables are byte-identical either way: no cell holds host time.
	Session *onocsim.Session
	// Progress observes the run: experiment start/finish events from the
	// registry dispatch, and — when it is also installed on the Session
	// (All does this for sessions it creates; other callers use
	// Session.SetProgress) — simulation computed/cache-hit events. nil
	// disables observation. Implementations must be safe for concurrent
	// use.
	Progress onocsim.Progress
}

func (o Options) cores() int {
	if o.Cores > 0 {
		return o.Cores
	}
	return 64
}

func (o Options) seed() uint64 {
	if o.Seed != 0 {
		return o.Seed
	}
	return 42
}

// kernelConfig builds the standard experiment config for one kernel.
func kernelConfig(o Options, kernel string) onocsim.Config {
	cfg := onocsim.DefaultConfig()
	cfg.Seed = o.seed()
	cfg.System.Cores = o.cores()
	cfg.Workload.Kind = config.WorkloadKernel
	cfg.Workload.Kernel = kernel
	if o.Quick {
		cfg.Workload.Scale = 4
		cfg.Workload.Iterations = 2
	}
	cfg.Name = fmt.Sprintf("%s-%dc", kernel, cfg.System.Cores)
	return cfg
}

// pct renders a fraction as a percentage string (for notes; table cells use
// metrics.Percent).
func pct(f float64) string { return fmt.Sprintf("%.1f%%", f*100) }

// cycles makes an integer cell measured in clock cycles.
func cycles(v onocsim.Tick) metrics.Cell { return metrics.Int(int64(v), "cycles") }

// studySet is the full methodology study of every kernel, so that R1 and R2
// render from one set of runs.
type studySet struct {
	kernels []string
	studies []*onocsim.Study // parallel to kernels
}

// newStudySet runs the studies side by side: they are independent simulations
// with per-study state, each internally deterministic, and the simulation
// slots their leaf operations hold bound how many run at once.
func newStudySet(ctx context.Context, o Options) (*studySet, error) {
	s := &studySet{kernels: workload.KernelNames()}
	s.studies = make([]*onocsim.Study, len(s.kernels))
	err := fanout.Each(ctx, len(s.kernels), func(ctx context.Context, i int) (err error) {
		k := s.kernels[i]
		if s.studies[i], err = o.Session.RunStudyContext(ctx, kernelConfig(o, k), onocsim.Optical); err != nil {
			return fmt.Errorf("experiments: study %s: %w", k, err)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return s, nil
}

// R1Accuracy reconstructs the headline accuracy table: per-application total
// execution time estimated by naive replay, coupled replay, and the
// Self-Correction Trace Model, each against execution-driven ground truth on
// the optical fabric.
func R1Accuracy(ctx context.Context, o Options) (*metrics.Table, error) {
	set, err := newStudySet(ctx, o)
	if err != nil {
		return nil, err
	}
	return r1FromSet(set)
}

func r1FromSet(set *studySet) (*metrics.Table, error) {
	t := metrics.NewTable(
		"R1 — Accuracy of trace methodologies vs execution-driven ONOC simulation",
		"kernel", "truth makespan", "naive est", "naive err", "sctm est", "sctm err",
		"coupled est", "coupled err", "trace events")
	var naiveErrs, sctmErrs []float64
	for i, k := range set.kernels {
		st := set.studies[i]
		t.AddCells(
			metrics.String(k),
			cycles(st.Truth.Makespan),
			cycles(st.Naive.Makespan), metrics.Percent(st.NaiveAcc.MakespanErr),
			cycles(st.SCTM.Final.Makespan), metrics.Percent(st.SCTMAcc.MakespanErr),
			cycles(st.Coupled.Makespan), metrics.Percent(st.CoupAcc.MakespanErr),
			metrics.Int(int64(st.Trace.NumEvents()), "events"),
		)
		naiveErrs = append(naiveErrs, st.NaiveAcc.MakespanErr)
		sctmErrs = append(sctmErrs, st.SCTMAcc.MakespanErr)
	}
	t.Note("mean abs makespan error: naive %s, sctm %s (lower is better; paper claims 'high precision')",
		pct(mean(naiveErrs)), pct(mean(sctmErrs)))
	return t, nil
}

// R2SimTime reconstructs the simulation-cost table in simulated cycles, a
// cost every result carries and no host load can move: what each methodology
// simulates per kernel, SCTM's cost as a multiple of the execution-driven run
// and of one naive replay, and the design count at which capturing once and
// correcting per design would undercut simulating every design
// execution-driven.
func R2SimTime(ctx context.Context, o Options) (*metrics.Table, error) {
	set, err := newStudySet(ctx, o)
	if err != nil {
		return nil, err
	}
	return r2FromSet(ctx, o, set)
}

func r2FromSet(ctx context.Context, o Options, set *studySet) (*metrics.Table, error) {
	t := metrics.NewTable(
		"R2 — Simulation cost (simulated cycles)",
		"kernel", "exec-driven", "capture(ref)", "naive", "sctm", "sctm rounds",
		"sctm vs exec", "sctm vs naive", "events replayed", "cycles saved")
	var breakEven []string
	for i, k := range set.kernels {
		st := set.studies[i]
		// A capture is the ideal-fabric execution-driven run with a recorder
		// attached, so that run's cycles are the capture's.
		capture, err := o.Session.RunExecutionDrivenContext(ctx, kernelConfig(o, k), onocsim.IdealNet)
		if err != nil {
			return nil, err
		}
		exec, sctm := st.Truth.Cycles, st.SCTM.TotalCycles
		t.AddCells(
			metrics.String(k),
			cycles(exec), cycles(capture.Cycles), cycles(st.Naive.Cycles), cycles(sctm),
			metrics.Int(int64(len(st.SCTM.Iterations)), "rounds"),
			metrics.Ratio(float64(sctm)/float64(exec), 2),
			metrics.Ratio(float64(sctm)/float64(st.Naive.Cycles), 1),
			metrics.Int(int64(st.SCTM.ReplayedEvents), "events"),
			cycles(st.SCTM.SavedCycles),
		)
		n := "none"
		if sctm < exec {
			n = fmt.Sprint(capture.Cycles/(exec-sctm) + 1)
		}
		breakEven = append(breakEven, k+" "+n)
	}
	t.Note("the paper claims the method does 'not substantially extend the total simulation time' vs trace-driven")
	t.Note("exec-driven and capture step cores, caches and fabric; naive and sctm step the fabric alone, sctm once per round")
	t.Note("break-even design count N (capture + N x sctm < N x exec-driven): %s", strings.Join(breakEven, ", "))
	t.Note("events replayed counts per-round replay work; under sctm.incremental the frozen prefix is skipped and 'cycles saved' sums the checkpoint resume times")
	return t, nil
}

// R3Convergence reconstructs the convergence figure: per-round schedule
// delta and makespan error of the self-correction loop.
func R3Convergence(ctx context.Context, o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"R3 — Self-correction convergence (one series per kernel)",
		"kernel", "round", "schedule delta", "makespan est", "err vs truth")
	for _, k := range workload.KernelNames() {
		cfg := kernelConfig(o, k)
		tr, _, err := o.Session.CaptureTraceContext(ctx, cfg, onocsim.IdealNet)
		if err != nil {
			return nil, err
		}
		truth, err := o.Session.RunExecutionDrivenContext(ctx, cfg, onocsim.Optical)
		if err != nil {
			return nil, err
		}
		res, err := o.Session.RunSelfCorrectionContext(ctx, cfg, tr, onocsim.Optical)
		if err != nil {
			return nil, err
		}
		for _, it := range res.Iterations {
			t.AddCells(
				metrics.String(k),
				metrics.Int(int64(it.Round), "rounds"),
				cycles(it.Delta),
				cycles(it.Makespan),
				metrics.Percent(metrics.RelErr(float64(it.Makespan), float64(truth.Makespan))),
			)
		}
	}
	return t, nil
}

// R4LoadLatency reconstructs the load–latency case-study figure: synthetic
// traffic sweeps on both fabrics.
func R4LoadLatency(ctx context.Context, o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"R4 — Load vs latency, electrical mesh vs optical crossbar",
		"pattern", "offered (flits/node/cyc)", "fabric", "mean lat", "p99 lat", "throughput", "saturated")
	patterns := []string{"uniform", "transpose", "hotspot"}
	rates := []float64{0.02, 0.05, 0.10, 0.20, 0.35, 0.50}
	packets := 300
	if o.Quick {
		patterns = []string{"uniform"}
		rates = []float64{0.05, 0.20}
		packets = 100
	}
	for _, pat := range patterns {
		for _, rate := range rates {
			for _, kind := range []onocsim.NetworkKind{onocsim.Electrical, onocsim.Optical} {
				cfg := onocsim.DefaultConfig()
				cfg.Seed = o.seed()
				cfg.System.Cores = o.cores()
				cfg.Workload = config.Workload{
					Kind:          config.WorkloadSynthetic,
					Pattern:       pat,
					InjectionRate: rate,
					PacketBytes:   64,
					Packets:       packets,
					Kernel:        "stencil",
					Scale:         1,
					Iterations:    1,
					ComputeScale:  1,
				}
				res, err := o.Session.RunSyntheticLoadContext(ctx, cfg, kind)
				if err != nil {
					return nil, err
				}
				t.AddCells(
					metrics.String(pat),
					metrics.Float(rate, 2, "flits/node/cyc"),
					metrics.String(string(kind)),
					metrics.Float(res.MeanLatency, 1, "cycles"),
					metrics.Float(res.P99Latency, 0, "cycles"),
					metrics.Float(res.Throughput, 3, "flits/node/cyc"),
					metrics.Bool(res.Saturated),
				)
			}
		}
	}
	return t, nil
}

// R5CaseStudy reconstructs the application case study: kernel completion
// time execution-driven on the baseline electrical NoC vs the ONOC.
func R5CaseStudy(ctx context.Context, o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"R5 — Case study: application completion time, electrical vs optical",
		"kernel", "electrical makespan", "optical makespan", "optical speedup",
		"elec mean lat", "opt mean lat")
	var speedups []float64
	for _, k := range workload.KernelNames() {
		cfg := kernelConfig(o, k)
		e, err := o.Session.RunExecutionDrivenContext(ctx, cfg, onocsim.Electrical)
		if err != nil {
			return nil, err
		}
		op, err := o.Session.RunExecutionDrivenContext(ctx, cfg, onocsim.Optical)
		if err != nil {
			return nil, err
		}
		sp := float64(e.Makespan) / float64(op.Makespan)
		speedups = append(speedups, sp)
		t.AddCells(
			metrics.String(k),
			cycles(e.Makespan),
			cycles(op.Makespan),
			metrics.Ratio(sp, 2),
			metrics.Float(e.MeanLatency, 1, "cycles"),
			metrics.Float(op.MeanLatency, 1, "cycles"),
		)
	}
	t.Note("geometric-mean optical speedup: %.2fx", metrics.GeoMean(speedups))
	return t, nil
}

// R6Power reconstructs the power-breakdown table over the kernel workloads.
func R6Power(ctx context.Context, o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"R6 — Network power (mW) over kernel workloads",
		"kernel", "fabric", "static", "dynamic", "total", "dominant components")
	for _, k := range workload.KernelNames() {
		cfg := kernelConfig(o, k)
		for _, kind := range []onocsim.NetworkKind{onocsim.Electrical, onocsim.Optical} {
			res, err := o.Session.RunExecutionDrivenContext(ctx, cfg, kind)
			if err != nil {
				return nil, err
			}
			p := res.Power
			t.AddCells(
				metrics.String(k), metrics.String(string(kind)),
				metrics.Float(p.StaticMW, 1, "mW"),
				metrics.Float(p.DynamicMW, 2, "mW"),
				metrics.Float(p.TotalMW(), 1, "mW"),
				metrics.String(topComponents(p.Breakdown, 2)),
			)
		}
	}
	t.Note("optical static power is laser + ring tuning and dominates at low utilization — the canonical ONOC trade-off")
	return t, nil
}

// R7Scaling reconstructs the methodology-scalability figure: SCTM error and
// cost (in simulated cycles, as R2) versus core count.
func R7Scaling(ctx context.Context, o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"R7 — SCTM scalability with core count (stencil kernel)",
		"cores", "truth makespan", "sctm err", "naive err", "exec cycles", "sctm cycles",
		"sctm vs exec", "sctm rounds", "trace events")
	sizes := []int{16, 64, 144, 256}
	if o.Quick {
		sizes = []int{16, 64}
	}
	for _, n := range sizes {
		opts := o
		opts.Cores = n
		cfg := kernelConfig(opts, "stencil")
		st, err := o.Session.RunStudyContext(ctx, cfg, onocsim.Optical)
		if err != nil {
			return nil, err
		}
		t.AddCells(
			metrics.Int(int64(n), "cores"),
			cycles(st.Truth.Makespan),
			metrics.Percent(st.SCTMAcc.MakespanErr),
			metrics.Percent(st.NaiveAcc.MakespanErr),
			cycles(st.Truth.Cycles),
			cycles(st.SCTM.TotalCycles),
			metrics.Ratio(float64(st.SCTM.TotalCycles)/float64(st.Truth.Cycles), 2),
			metrics.Int(int64(len(st.SCTM.Iterations)), "rounds"),
			metrics.Int(int64(st.Trace.NumEvents()), "events"),
		)
	}
	return t, nil
}

// R8Ablation reconstructs the dependency-class ablation: the error of the
// self-correction model with synchronization or causal edges disabled.
func R8Ablation(ctx context.Context, o Options) (*metrics.Table, error) {
	t := metrics.NewTable(
		"R8 — Why dependencies matter: SCTM error with dependency classes ablated",
		"kernel", "full model", "no sync deps", "no causal deps")
	for _, k := range workload.KernelNames() {
		cfg := kernelConfig(o, k)
		tr, _, err := o.Session.CaptureTraceContext(ctx, cfg, onocsim.IdealNet)
		if err != nil {
			return nil, err
		}
		truth, err := o.Session.RunExecutionDrivenContext(ctx, cfg, onocsim.Optical)
		if err != nil {
			return nil, err
		}
		errFor := func(noSync, noCausal bool) (float64, error) {
			c := cfg
			c.SCTM.DisableSyncDeps = noSync
			c.SCTM.DisableCausalDeps = noCausal
			res, err := o.Session.RunSelfCorrectionContext(ctx, c, tr, onocsim.Optical)
			if err != nil {
				return 0, err
			}
			return metrics.RelErr(float64(res.Final.Makespan), float64(truth.Makespan)), nil
		}
		full, err := errFor(false, false)
		if err != nil {
			return nil, err
		}
		noSync, err := errFor(true, false)
		if err != nil {
			return nil, err
		}
		noCausal, err := errFor(false, true)
		if err != nil {
			return nil, err
		}
		t.AddCells(metrics.String(k), metrics.Percent(full), metrics.Percent(noSync), metrics.Percent(noCausal))
	}
	return t, nil
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// topComponents names the n largest breakdown entries.
func topComponents(m map[string]float64, n int) string {
	type kv struct {
		k string
		v float64
	}
	var list []kv
	for k, v := range m {
		list = append(list, kv{k, v})
	}
	for i := 0; i < len(list); i++ {
		for j := i + 1; j < len(list); j++ {
			if list[j].v > list[i].v || (list[j].v == list[i].v && list[j].k < list[i].k) {
				list[i], list[j] = list[j], list[i]
			}
		}
	}
	if n > len(list) {
		n = len(list)
	}
	out := ""
	for i := 0; i < n; i++ {
		if i > 0 {
			out += ", "
		}
		out += fmt.Sprintf("%s=%.1f", list[i].k, list[i].v)
	}
	return out
}
