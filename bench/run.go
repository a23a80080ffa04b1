package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"time"
)

// metricSpec is one line of BENCHMARK.json; the tables below are its source
// (a test holds the file to them).
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the simulator or the daemon sees. Every
// workload reports every one of them; what "work" and "op" mean per workload
// is in README.md. The wall-clock bounds are as wide as a bound may be: the
// reference host drifts by ±18 % between phases that last minutes, so ten
// runs of one build spread by up to 18 % (README.md, "Steadiness"). The
// allocation count, which no neighbour disturbs, is held to 5 %.
var endToEnd = []metricSpec{
	{"setup_s", "s", "lower", 0.25},
	{"pass_s", "s", "lower", 0.25},
	{"work_per_s", "1/s", "higher", 0.25},
	{"op_p50_ms", "ms", "lower", 0.25},
	{"allocs_per_work", "count", "lower", 0.05},
	{"peak_rss_mb", "MB", "lower", 0.20},
}

// perLayer is what the traced run attributes to single modules. A layer a
// workload does not touch reads 0 there; accuracy.makespan_err_pct reads -1
// where the workload has no reference.
var perLayer = []metricSpec{
	{Name: "enoc.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "enoc.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "enoc.ticks", Unit: "count", Better: "lower"},
	{Name: "enoc.skipped_cycle_frac", Unit: "frac", Better: "higher"},
	{Name: "enoc.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "onoc.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "onoc.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "onoc.ticks", Unit: "count", Better: "lower"},
	{Name: "onoc.skipped_cycle_frac", Unit: "frac", Better: "higher"},
	{Name: "onoc.snapshot_us", Unit: "us", Better: "lower"},
	{Name: "hybrid.busy_ms", Unit: "ms", Better: "lower"},
	{Name: "hybrid.ticks", Unit: "count", Better: "lower"},
	{Name: "noc.ideal_busy_ms", Unit: "ms", Better: "lower"},
	{Name: "core.self_ms", Unit: "ms", Better: "lower"},
	{Name: "core.rounds", Unit: "count", Better: "lower"},
	{Name: "core.replayed_events", Unit: "count", Better: "lower"},
	{Name: "core.replay_amplification", Unit: "ratio", Better: "lower"},
	{Name: "core.schedule_us", Unit: "us", Better: "lower"},
	{Name: "core.replay_mem_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.replay_stream_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.replay_shards2_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.correct_incr_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "core.incr_replayed_frac", Unit: "frac", Better: "lower"},
	{Name: "core.sctm_over_naive", Unit: "ratio", Better: "lower"},
	{Name: "accuracy.makespan_err_pct", Unit: "%", Better: "lower"},
	{Name: "trace.decode_mevents_per_s", Unit: "1/s", Better: "higher"},
	{Name: "trace.digest_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.encode_mevents_per_s", Unit: "1/s", Better: "higher"},
	{Name: "cpu.self_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu.capture_ms", Unit: "ms", Better: "lower"},
	{Name: "cpu.capture_events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "workload.generate_ms", Unit: "ms", Better: "lower"},
	{Name: "sim.engine_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "analytic.estimate_us", Unit: "us", Better: "lower"},
	{Name: "analytic.prune_ratio", Unit: "frac", Better: "higher"},
	{Name: "sweep.expand_us", Unit: "us", Better: "lower"},
	{Name: "sweep.front_us", Unit: "us", Better: "lower"},
	{Name: "sweep.estimate_phase_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.simulate_phase_ms", Unit: "ms", Better: "lower"},
	{Name: "sweep.unique_jobs", Unit: "count", Better: "lower"},
	{Name: "sweep.simulated", Unit: "count", Better: "lower"},
	{Name: "sched.acquire_ns", Unit: "ns", Better: "lower"},
	{Name: "sched.contended_wait_us", Unit: "us", Better: "lower"},
	{Name: "sched.admitted", Unit: "count", Better: "higher"},
	{Name: "sched.cancelled", Unit: "count", Better: "lower"},
	{Name: "simcache.hit_ns", Unit: "ns", Better: "lower"},
	{Name: "simcache.miss_overhead_ns", Unit: "ns", Better: "lower"},
	{Name: "simcache.disk_hit_us", Unit: "us", Better: "lower"},
	{Name: "simcache.hits", Unit: "count", Better: "higher"},
	{Name: "simcache.misses", Unit: "count", Better: "lower"},
	{Name: "simcache.waits", Unit: "count", Better: "lower"},
	{Name: "config.parse_us", Unit: "us", Better: "lower"},
	{Name: "config.fingerprint_us", Unit: "us", Better: "lower"},
	{Name: "session.key_us", Unit: "us", Better: "lower"},
	{Name: "job.run_warm_us", Unit: "us", Better: "lower"},
	{Name: "report.render_us", Unit: "us", Better: "lower"},
	{Name: "metrics.marshal_us", Unit: "us", Better: "lower"},
	{Name: "service.handler_warm_us", Unit: "us", Better: "lower"},
	{Name: "service.http_overhead_us", Unit: "us", Better: "lower"},
	{Name: "service.warm_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.warm_p95_ms", Unit: "ms", Better: "lower"},
	{Name: "service.warm_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "service.warm_p999_ms", Unit: "ms", Better: "lower"},
	{Name: "service.cold_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "service.req_per_s", Unit: "1/s", Better: "higher"},
	{Name: "service.non200", Unit: "count", Better: "lower"},
	{Name: "proc.cpu_util", Unit: "ratio", Better: "higher"},
	{Name: "proc.gc_cpu_frac", Unit: "frac", Better: "lower"},
	{Name: "proc.gc_pause_ms", Unit: "ms", Better: "lower"},
	{Name: "proc.heap_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "proc.goroutines_end", Unit: "count", Better: "lower"},
	{Name: "trace_overhead_frac", Unit: "frac", Better: "lower"},
	{Name: "trace_residual_frac", Unit: "frac", Better: "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is one run of one workload. The last line of standard output
// carries only verdict and metrics; the rest goes to the result file.
type runResult struct {
	Workload  string                 `json:"workload"`
	Seed      uint64                 `json:"seed"`
	Traced    bool                   `json:"traced"`
	Seconds   float64                `json:"seconds"`
	Host      hostInfo               `json:"host"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Errors    []string               `json:"errors,omitempty"`
	Passes    int                    `json:"passes"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Samples holds the per-pass (or per-set-up) values a median was taken
	// over; Quartiles their first quartile, median and third quartile.
	Samples   map[string][]float64  `json:"samples"`
	Quartiles map[string][3]float64 `json:"quartiles"`
	Digests   map[string]string     `json:"digests"`
}

func (r *runResult) set(specs []metricSpec, name string, v float64) {
	for _, s := range specs {
		if s.Name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: s.Unit}
			return
		}
	}
	panic("bench: metric " + name + " is not declared in the spec tables")
}

func (r *runResult) sample(name string, v []float64) {
	r.Samples[name] = v
	q1, m, q3 := quartiles(v)
	r.Quartiles[name] = [3]float64{q1, m, q3}
}

func (r *runResult) fail(err error) {
	r.Correct = false
	if len(r.Errors) < 8 {
		r.Errors = append(r.Errors, err.Error())
	}
}

// runOpts is one invocation.
type runOpts struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	size     sizes
	outDir   string // result files, trace files and scratch
	// setupChildren is how many fresh processes time the set-up; 0 times
	// this process's own (the smoke test has no program to start).
	setupChildren int
	golden        *goldens
	updateGolden  bool
	log           io.Writer
}

const (
	// minPasses also fixes the work done before peak_rss_mb is read, so
	// that memory does not grow with how many passes fit into the time.
	minPasses = 4
	// maxErrPct is the validity band on any seed: SCTM's makespan may not
	// stray further from the execution-driven run's. It is a sanity check;
	// exact drift is caught by the goldens.
	maxErrPct = 20.0
)

// verifier holds every pass to the first one's digests.
type verifier struct {
	first map[string]string
	res   *runResult
}

func (v *verifier) check(where string, digests map[string]string) {
	for op, d := range digests {
		switch want, seen := v.first[op]; {
		case !seen:
			v.first[op] = d
		case want != d:
			v.res.Failed++
			v.res.fail(fmt.Errorf("%s: digest of %q differs from the first pass's", where, op))
		}
	}
}

func (v *verifier) account(where string, out passOut) {
	v.res.Attempted += out.ops
	v.res.Failed += out.failed
	if out.firstErr != nil {
		v.res.fail(fmt.Errorf("%s: %w", where, out.firstErr))
	}
	v.check(where, out.digests)
}

// run executes one workload, traced or not, and returns its result.
func run(ctx context.Context, o runOpts) (*runResult, error) {
	res := &runResult{
		Workload: o.workload, Seed: o.seed, Traced: o.traced, Seconds: o.seconds, Host: readHostInfo(),
		Correct: true, Metrics: map[string]metricValue{}, Samples: map[string][]float64{}, Quartiles: map[string][3]float64{},
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	scratch, err := os.MkdirTemp(o.outDir, "scratch-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(scratch)

	w, err := newWorkload(o.workload, o.seed, o.size, scratch)
	if err != nil {
		return nil, err
	}
	defer w.close()
	setupStart := time.Now()
	if err := w.setup(ctx); err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	ownSetup := time.Since(setupStart)

	v := &verifier{first: map[string]string{}, res: res}
	if o.traced {
		err = runTraced(ctx, o, w, v, scratch)
	} else {
		err = runTimed(ctx, o, w, v, ownSetup)
	}
	if err != nil {
		return nil, err
	}
	res.Digests = v.first
	if o.size == fullSize {
		if o.updateGolden {
			o.golden.put(o.workload, o.seed, v.first)
		} else if err := o.golden.check(o.workload, o.seed, v.first); err != nil {
			res.Failed++
			res.fail(err)
		}
	}
	if res.Failed > 0 {
		res.Correct = false
	}
	return res, nil
}

// runTimed is the run of record: tracing off, closed loop, passes until the
// time is up, every timing a median over passes.
func runTimed(ctx context.Context, o runOpts, w workload, v *verifier, ownSetup time.Duration) error {
	res := v.res
	var passS, rss, warm []float64
	work, replayed := 0, 0
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	start := time.Now()
	for n := 0; n < minPasses || time.Since(start).Seconds() < o.seconds; n++ {
		t := time.Now()
		out := w.pass(ctx, nil, n)
		passS = append(passS, time.Since(t).Seconds())
		rss = append(rss, peakRSSMB())
		v.account(fmt.Sprintf("pass %d", n), out)
		work += out.work
		replayed += out.replayed
		warm = append(warm, out.warmMS...)
	}
	runtime.ReadMemStats(&m1)
	res.Passes = len(passS)

	if pct, has, err := w.reference(ctx); err != nil {
		res.fail(fmt.Errorf("reference run: %w", err))
	} else if has && pct > maxErrPct {
		res.Failed++
		res.fail(fmt.Errorf("makespan error %.2f%% against the execution-driven run exceeds %.0f%%", pct, maxErrPct))
	}

	setups := []float64{ownSetup.Seconds()}
	if o.setupChildren > 0 {
		var err error
		if setups, err = timeSetupChildren(ctx, o); err != nil {
			return err
		}
	}

	res.sample("setup_s", setups)
	res.sample("pass_s", passS)
	pass := median(passS)
	perPass := float64(work) / float64(len(passS))
	res.set(endToEnd, "setup_s", median(setups))
	res.set(endToEnd, "pass_s", pass)
	res.set(endToEnd, "work_per_s", perPass/pass)
	if len(warm) > 0 {
		res.set(endToEnd, "op_p50_ms", percentile(sorted(warm), 0.50))
	} else {
		res.set(endToEnd, "op_p50_ms", pass*1e3)
	}
	res.set(endToEnd, "allocs_per_work", float64(m1.Mallocs-m0.Mallocs)/math.Max(float64(work), 1))
	res.set(endToEnd, "peak_rss_mb", rss[minPasses-1])
	return nil
}

// timeSetupChildren times set-up as a user pays it: a fresh process that
// starts, builds the workload's inputs and state, runs the warm-up pass and
// exits. Anything a change moves out of the passes into start-up, lazy
// initialisation or caches built on first use lands here.
func timeSetupChildren(ctx context.Context, o runOpts) ([]float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < o.setupChildren; i++ {
		cmd := exec.CommandContext(ctx, exe, "--workload", o.workload, "--seed", strconv.FormatUint(o.seed, 10),
			"--out", o.outDir, "--setup-only")
		cmd.Stderr = os.Stderr
		t := time.Now()
		if err := cmd.Run(); err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		out = append(out, time.Since(t).Seconds())
	}
	return out, nil
}

// runTraced is the shorter second run that attributes host time to modules:
// real passes under one span each, alternated with untraced ones (their
// difference is the tracing overhead), then the decomposed twins, then the
// stand-alone probes.
func runTraced(ctx context.Context, o runOpts, w workload, v *verifier, scratch string) error {
	res := v.res
	rec := newRecorder()
	var plain, traced []float64
	var outs []passOut
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0, start := cpuTime(), time.Now()
	heapPeak := 0.0
	n := 0
	for pair := 0; pair < 2 || time.Since(start).Seconds() < 0.4*o.seconds; pair++ {
		for _, r := range []*recorder{nil, rec} {
			t := time.Now()
			out := w.pass(ctx, r, n)
			d := time.Since(t).Seconds()
			if r == nil {
				plain = append(plain, d)
			} else {
				traced = append(traced, d)
			}
			v.account(fmt.Sprintf("traced-run pass %d", n), out)
			outs = append(outs, out)
			var m runtime.MemStats
			runtime.ReadMemStats(&m)
			heapPeak = math.Max(heapPeak, float64(m.HeapInuse)/(1<<20))
			n++
		}
	}
	wall, cpu := time.Since(start), cpuTime()-cpu0
	runtime.ReadMemStats(&m1)
	res.Passes = n
	res.sample("untraced_pass_s", plain)
	res.sample("traced_pass_s", traced)

	// Two twin passes, or one where a single twin already takes a quarter of
	// the run (the sweep's redoes every arm on one goroutine).
	tw := newTwinner(rec)
	twins := 0
	var twinTotal, twinReal time.Duration
	for twinStart := time.Now(); twins < 2 && (twins == 0 || time.Since(twinStart).Seconds() < 0.25*o.seconds); twins++ {
		total, real, digests, err := w.twin(ctx, tw, n+twins)
		if err != nil {
			res.Failed++
			res.fail(fmt.Errorf("twin pass: %w", err))
			break
		}
		// A decorated run must answer exactly what the bare one answered.
		v.check("twin pass", digests)
		twinTotal += total
		if real == 0 {
			real = time.Duration(median(traced) * float64(time.Second))
		}
		twinReal += real
	}

	for _, spec := range perLayer {
		res.set(perLayer, spec.Name, 0)
	}
	set := func(name string, val float64) { res.set(perLayer, name, val) }
	setTwinMetrics(set, tw, max(twins, 1), rec.spans)
	setPassMetrics(set, outs, tw.replayedEvents/max(twins, 1))
	if len(outs[0].warmMS) > 0 {
		set("service.req_per_s", float64(o.size.block)/median(plain))
	}

	if pct, has, err := w.reference(ctx); err != nil {
		res.fail(fmt.Errorf("reference run: %w", err))
	} else if has {
		set("accuracy.makespan_err_pct", pct)
	} else {
		set("accuracy.makespan_err_pct", -1)
	}

	set("proc.cpu_util", cpu.Seconds()/wall.Seconds())
	set("proc.gc_cpu_frac", m1.GCCPUFraction)
	set("proc.gc_pause_ms", float64(m1.PauseTotalNs-m0.PauseTotalNs)/1e6)
	set("proc.heap_peak_mb", heapPeak)
	set("trace_overhead_frac", median(traced)/median(plain)-1)
	if twinReal > 0 {
		set("trace_residual_frac", math.Abs(float64(twinTotal-twinReal))/float64(twinReal))
	}

	env, err := newProbeEnv(ctx, scratch, o.size)
	if err != nil {
		return fmt.Errorf("probe inputs: %w", err)
	}
	for _, p := range probes {
		if err := p.run(env, set); err != nil {
			res.Failed++
			res.fail(fmt.Errorf("probe %s: %w", p.layer, err))
		}
	}

	w.close()
	time.Sleep(10 * time.Millisecond) // let the closed server's goroutines unwind
	set("proc.goroutines_end", float64(runtime.NumGoroutine()))

	path := filepath.Join(o.outDir, "trace-"+o.workload+".json")
	if err := writeChromeTrace(path, rec.spans); err != nil {
		return err
	}
	fmt.Fprintf(o.log, "spans: %d recorded, written to %s (open in ui.perfetto.dev)\n", len(rec.spans), path)
	return nil
}

// setTwinMetrics reports what only the twins see, per twin pass: the fabric
// decorators' tallies and the self time of the layers around them.
func setTwinMetrics(set func(string, float64), tw *twinner, twins int, spans []span) {
	per := 1 / float64(twins)
	for layer, st := range tw.fabric {
		if layer == "noc.ideal" {
			set("noc.ideal_busy_ms", ms(st.busy())*per)
			continue
		}
		set(layer+".busy_ms", ms(st.busy())*per)
		set(layer+".ticks", float64(st.tick.calls)*per)
		if layer == "hybrid" {
			continue
		}
		if st.tick.calls > 0 {
			set(layer+".tick_ns", float64(st.tick.busy())/float64(st.tick.calls))
		}
		set(layer+".skipped_cycle_frac", st.skippedFrac())
	}
	_, self := byName(spans)
	set("core.self_ms", ms(self["core.selfcorrect"]+self["core.naive_summary"])*per)
	set("cpu.self_ms", ms(self["cpu.capture"])*per)
	set("core.rounds", float64(tw.rounds)*per)
	set("core.replayed_events", float64(tw.replayedEvents)*per)
}

// setPassMetrics reports what the real passes of the traced run saw: cache
// traffic, the layer figures only one workload has, the served latencies.
// twinReplayed is one twin pass's injection count, for the entry points that
// do not return their own (a sweep).
func setPassMetrics(set func(string, float64), outs []passOut, twinReplayed int) {
	work, replayed, non200 := 0, 0, 0
	extra := map[string][]float64{}
	var warm, cold []float64
	for _, out := range outs {
		work += out.work
		replayed += out.replayed
		non200 += out.non200
		for k, val := range out.extra {
			extra[k] = append(extra[k], val)
		}
		warm = append(warm, out.warmMS...)
		cold = append(cold, out.coldMS...)
	}
	// Events injected into fabrics per trace event resolved.
	if replayed == 0 {
		replayed = twinReplayed * len(outs)
	}
	if work > 0 {
		set("core.replay_amplification", float64(replayed)/float64(work))
	}
	// Cache traffic is per pass; every pass does the same work, so the
	// latest stands for all.
	cache := outs[len(outs)-1].cache
	set("simcache.hits", float64(cache.hits))
	set("simcache.misses", float64(cache.misses))
	set("simcache.waits", float64(cache.waits))
	for k, vals := range extra {
		set(k, median(vals))
	}
	if len(warm) > 0 {
		s := sorted(warm)
		set("service.warm_p50_ms", percentile(s, 0.50))
		set("service.warm_p95_ms", percentile(s, 0.95))
		set("service.warm_p99_ms", percentile(s, 0.99))
		set("service.warm_p999_ms", percentile(s, 0.999))
		set("service.cold_p50_ms", percentile(sorted(cold), 0.50))
		set("service.non200", float64(non200))
	}
}

// printResult prints every metric by name with its unit, then the one-line JSON
// verdict the driver reads.
func printResult(w io.Writer, res *runResult, specs []metricSpec) error {
	fmt.Fprintf(w, "workload %s  seed %d  traced %v  passes %d  ops %d  failed %d\n",
		res.Workload, res.Seed, res.Traced, res.Passes, res.Attempted, res.Failed)
	fmt.Fprintf(w, "host: %d cpus (GOMAXPROCS %d), %s, %s, load %s\n",
		res.Host.NProc, res.Host.GOMAXPROCS, res.Host.GoVersion, res.Host.CPUModel, res.Host.LoadAvg)
	names := make([]string, 0, len(res.Samples))
	for name := range res.Samples {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		q := res.Quartiles[name]
		fmt.Fprintf(w, "  %-18s median %.4f  quartiles [%.4f, %.4f]  n=%d\n", name, q[1], q[0], q[2], len(res.Samples[name]))
	}
	for _, s := range specs {
		m := res.Metrics[s.Name]
		fmt.Fprintf(w, "%-34s %14.4f %s\n", s.Name, m.Value, m.Unit)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(w, "FAILED: %s\n", e)
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": res.Metrics,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
