// Benchmarks regenerating the reconstructed paper evaluation. Each
// BenchmarkR* corresponds to one table/figure in DESIGN.md §3 and
// EXPERIMENTS.md; running `go test -bench=. -benchmem` reproduces the whole
// evaluation at CI scale (experiments use Quick mode inside benchmarks to
// keep per-iteration cost bounded — run cmd/expreport for full-scale runs).
//
// Microbenchmarks at the bottom characterize the simulator itself: fabric
// cycle cost, trace codec throughput, and the correction loop.
package onocsim_test

import (
	"context"
	"io"
	"path/filepath"
	"sync"
	"testing"

	"onocsim"
	"onocsim/internal/config"
	"onocsim/internal/core"
	"onocsim/internal/experiments"
	"onocsim/internal/noc"
	"onocsim/internal/trace"
	"onocsim/internal/workload"
)

var benchOpts = experiments.Options{Seed: 42, Cores: 16, Quick: true}

// The micro-benchmarks time computations, not cache hits, so they run on the
// nil session; bg is the context of a caller that never cancels.
var (
	uncached *onocsim.Session
	bg       = context.Background()
)

// benchTable runs one experiment per iteration, failing the benchmark on
// error and reporting the row count so regressions in coverage are visible.
func benchTable(b *testing.B, name string) {
	b.Helper()
	rows := 0
	for i := 0; i < b.N; i++ {
		t, err := experiments.ByName(bg, name, benchOpts)
		if err != nil {
			b.Fatal(err)
		}
		rows = t.NumRows()
	}
	b.ReportMetric(float64(rows), "rows")
}

// BenchmarkR1Accuracy regenerates the headline accuracy table (R1).
func BenchmarkR1Accuracy(b *testing.B) { benchTable(b, "r1") }

// BenchmarkR2SimTime regenerates the simulation-cost table (R2).
func BenchmarkR2SimTime(b *testing.B) { benchTable(b, "r2") }

// BenchmarkR3Convergence regenerates the convergence figure series (R3).
func BenchmarkR3Convergence(b *testing.B) { benchTable(b, "r3") }

// BenchmarkR4LoadLatency regenerates the load–latency figure series (R4).
func BenchmarkR4LoadLatency(b *testing.B) { benchTable(b, "r4") }

// BenchmarkR5CaseStudy regenerates the application case-study table (R5).
func BenchmarkR5CaseStudy(b *testing.B) { benchTable(b, "r5") }

// BenchmarkR6Power regenerates the power-breakdown table (R6).
func BenchmarkR6Power(b *testing.B) { benchTable(b, "r6") }

// BenchmarkR7Scaling regenerates the scalability figure series (R7).
func BenchmarkR7Scaling(b *testing.B) { benchTable(b, "r7") }

// BenchmarkR8Ablation regenerates the dependency-ablation table (R8).
func BenchmarkR8Ablation(b *testing.B) { benchTable(b, "r8") }

// BenchmarkR9Architectures regenerates the MWSR-vs-SWMR extension (R9).
func BenchmarkR9Architectures(b *testing.B) { benchTable(b, "r9") }

// BenchmarkR10CaptureFabric regenerates the capture-sensitivity extension (R10).
func BenchmarkR10CaptureFabric(b *testing.B) { benchTable(b, "r10") }

// BenchmarkR12Hybrid regenerates the hybrid-NoC extension (R12).
func BenchmarkR12Hybrid(b *testing.B) { benchTable(b, "r12") }

// --- Simulator microbenchmarks ---

// benchFabricTick measures the cost of simulating one cycle of a fabric
// under moderate uniform load.
func benchFabricTick(b *testing.B, kind onocsim.NetworkKind) {
	cfg := onocsim.DefaultConfig()
	cfg.System.Cores = 64
	net, err := onocsim.BuildNetwork(cfg, kind)
	if err != nil {
		b.Fatal(err)
	}
	// Preload with traffic and keep topping it up.
	var id uint64
	inject := func() {
		for src := 0; src < 64; src += 4 {
			id++
			net.Inject(&noc.Message{ID: id, Src: src, Dst: (src + 13) % 64, Bytes: 64, Class: noc.ClassRequest})
		}
	}
	inject()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if i%16 == 0 {
			inject()
		}
		net.Tick()
	}
}

func BenchmarkTickElectrical(b *testing.B) { benchFabricTick(b, onocsim.Electrical) }
func BenchmarkTickOptical(b *testing.B)    { benchFabricTick(b, onocsim.Optical) }
func BenchmarkTickIdeal(b *testing.B)      { benchFabricTick(b, onocsim.IdealNet) }

// BenchmarkExecutionDriven measures a full execution-driven kernel run.
func BenchmarkExecutionDriven(b *testing.B) {
	cfg := onocsim.DefaultConfig()
	cfg.System.Cores = 16
	cfg.Workload.Scale = 4
	cfg.Workload.Iterations = 2
	for i := 0; i < b.N; i++ {
		if _, err := uncached.RunExecutionDrivenContext(bg, cfg, onocsim.Optical); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelfCorrection measures the full correction loop on a captured
// trace (capture excluded).
func BenchmarkSelfCorrection(b *testing.B) {
	cfg := onocsim.DefaultConfig()
	cfg.System.Cores = 16
	cfg.Workload.Scale = 4
	cfg.Workload.Iterations = 2
	tr, _, err := uncached.CaptureTraceContext(bg, cfg, onocsim.IdealNet)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := uncached.RunSelfCorrectionContext(bg, cfg, tr, onocsim.Optical); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.NumEvents()), "events")
}

// BenchmarkStreamCorrection measures the streamed correction's engine cost
// per event: a correction of a generated 2^16-event, 64-node trace file on
// the optical crossbar, read out of core, with ns/event charged per replayed
// event (every round's replay) — the per-event figure the benchmark of
// record's xbar_stream workload reports, without its 2^19-event file.
func BenchmarkStreamCorrection(b *testing.B) {
	cfg := onocsim.DefaultConfig()
	cfg.System.Cores = 64
	spec := workload.DefaultHugeSpec()
	spec.Nodes, spec.Events = 64, 1<<16
	path := filepath.Join(b.TempDir(), "stream.sctm")
	if _, err := workload.WriteHugeFile(path, spec); err != nil {
		b.Fatal(err)
	}
	src, err := onocsim.OpenTraceFile(path)
	if err != nil {
		b.Fatal(err)
	}
	replayed := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := uncached.RunSelfCorrectionContext(bg, cfg, src, onocsim.Optical)
		if err != nil {
			b.Fatal(err)
		}
		replayed += res.ReplayedEvents
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(replayed), "ns/event")
}

// BenchmarkSchedulePass measures the pure dependency-graph schedule pass,
// the cheap half of each correction round.
func BenchmarkSchedulePass(b *testing.B) {
	cfg := onocsim.DefaultConfig()
	cfg.System.Cores = 16
	tr, _, err := uncached.CaptureTraceContext(bg, cfg, onocsim.IdealNet)
	if err != nil {
		b.Fatal(err)
	}
	lat := make([]onocsim.Tick, tr.NumEvents())
	for i := range lat {
		lat[i] = 20
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		core.Schedule(tr, lat, core.ScheduleOptions{})
	}
	b.ReportMetric(float64(tr.NumEvents()), "events")
}

// BenchmarkTraceCodec measures binary encode+decode throughput.
func BenchmarkTraceCodec(b *testing.B) {
	cfg := onocsim.DefaultConfig()
	cfg.System.Cores = 16
	tr, _, err := uncached.CaptureTraceContext(bg, cfg, onocsim.IdealNet)
	if err != nil {
		b.Fatal(err)
	}
	var buf writableBuffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.data = buf.data[:0]
		if err := trace.WriteBinary(&buf, tr); err != nil {
			b.Fatal(err)
		}
		if _, err := trace.ReadBinary(&readableBuffer{data: buf.data}); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(len(buf.data)))
}

type writableBuffer struct{ data []byte }

func (w *writableBuffer) Write(p []byte) (int, error) {
	w.data = append(w.data, p...)
	return len(p), nil
}

type readableBuffer struct {
	data []byte
	pos  int
}

func (r *readableBuffer) Read(p []byte) (int, error) {
	if r.pos >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.pos:])
	r.pos += n
	return n, nil
}

// BenchmarkSyntheticUniform measures the synthetic traffic harness on both
// fabrics at a moderate load (part of regenerating R4 quickly).
func BenchmarkSyntheticUniform(b *testing.B) {
	for _, kind := range []onocsim.NetworkKind{onocsim.Electrical, onocsim.Optical} {
		b.Run(string(kind), func(b *testing.B) {
			cfg := onocsim.DefaultConfig()
			cfg.System.Cores = 16
			cfg.Workload = config.Workload{
				Kind: config.WorkloadSynthetic, Pattern: "uniform",
				InjectionRate: 0.1, PacketBytes: 64, Packets: 50,
				Kernel: "stencil", Scale: 1, Iterations: 1, ComputeScale: 1,
			}
			for i := 0; i < b.N; i++ {
				net, err := onocsim.BuildNetwork(cfg, kind)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := workload.RunSynthetic(net, cfg.Workload, cfg.Seed); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// --- Sharded replay benchmarks ---

// shardBench holds the one captured trace shared by the sharded-replay
// benchmarks; capture cost is paid once and excluded from every timing loop.
var shardBench struct {
	once sync.Once
	cfg  onocsim.Config
	tr   *trace.Trace
	err  error
}

func shardBenchTrace(b *testing.B) (onocsim.Config, *trace.Trace) {
	b.Helper()
	s := &shardBench
	s.once.Do(func() {
		cfg := onocsim.DefaultConfig()
		cfg.System.Cores = 64
		cfg.Workload.Scale = 8
		cfg.Workload.Iterations = 2
		s.cfg = cfg
		s.tr, _, s.err = uncached.CaptureTraceContext(bg, cfg, onocsim.IdealNet)
	})
	if s.err != nil {
		b.Fatal(s.err)
	}
	return s.cfg, s.tr
}

// benchReplayShards measures a naive trace replay on the optical crossbar
// split across K replica fabrics. Results are byte-identical across K (the
// shard-invariance tests assert it); only wall-clock moves, and only on
// hosts with spare cores. The replicas are built once and handed out reset
// every iteration, as a correction loop reuses them from round to round.
func benchReplayShards(b *testing.B, shards int) {
	cfg, tr := shardBenchTrace(b)
	factory, err := onocsim.NetworkFactory(cfg, onocsim.Optical)
	if err != nil {
		b.Fatal(err)
	}
	inject := make([]onocsim.Tick, len(tr.Events))
	for i := range tr.Events {
		inject[i] = tr.Events[i].RefInject
	}
	var nets []noc.Network
	next := 0
	reuse := func() noc.Network {
		if next == len(nets) {
			nets = append(nets, factory())
		}
		next++
		return nets[next-1]
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, n := range nets {
			n.(noc.Resettable).Reset()
		}
		next = 0
		if _, err := core.ReplayScheduleSharded(reuse, tr, inject, shards); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.NumEvents()), "events")
}

func BenchmarkReplayShards1(b *testing.B) { benchReplayShards(b, 1) }
func BenchmarkReplayShards2(b *testing.B) { benchReplayShards(b, 2) }
func BenchmarkReplayShards4(b *testing.B) { benchReplayShards(b, 4) }
func BenchmarkReplayShards8(b *testing.B) { benchReplayShards(b, 8) }

// BenchmarkSelfCorrectionShards8 measures the full correction loop with
// every replay round split across 8 shards (compare BenchmarkSelfCorrection
// for the serial loop on a smaller chip).
func BenchmarkSelfCorrectionShards8(b *testing.B) {
	cfg, tr := shardBenchTrace(b)
	factory, err := onocsim.NetworkFactory(cfg, onocsim.Optical)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := core.SelfCorrectParkableCtx(context.Background(), factory, tr, cfg.SCTM, 8, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.NumEvents()), "events")
}

// BenchmarkR13Photonics regenerates the loss-budget sensitivity table (R13).
func BenchmarkR13Photonics(b *testing.B) { benchTable(b, "r13") }

// BenchmarkR14WhatIf regenerates the core-speed what-if table (R14).
func BenchmarkR14WhatIf(b *testing.B) { benchTable(b, "r14") }

// BenchmarkR15League regenerates the fabric league table (R15).
func BenchmarkR15League(b *testing.B) { benchTable(b, "r15") }

// BenchmarkR16Seeds regenerates the seed-sensitivity table (R16).
func BenchmarkR16Seeds(b *testing.B) { benchTable(b, "r16") }

// BenchmarkR17Memory regenerates the memory-intensity table (R17).
func BenchmarkR17Memory(b *testing.B) { benchTable(b, "r17") }

// BenchmarkR18Faults regenerates the fault-injection degradation table (R18).
func BenchmarkR18Faults(b *testing.B) { benchTable(b, "r18") }

// BenchmarkR19Seeding regenerates the seeding and screening table (R19).
func BenchmarkR19Seeding(b *testing.B) { benchTable(b, "r19") }

// seedBenchCases are two contended fabrics, each with a workload where
// contention actually shapes the schedule: the mesh runs the fft kernel, the
// crossbar a dependency-chained hotspot (every source bursting at node 0).
// The rounds metric is the replay-round count the seeding strategy pays;
// comparing it and ns/op between the ZeroLoad and Coupled benchmarks shows
// what starting from the coupled answer saves per fabric.
func seedBenchCases(b *testing.B) []struct {
	name string
	kind onocsim.NetworkKind
	cfg  onocsim.Config
	tr   *onocsim.Trace
} {
	b.Helper()
	mesh := onocsim.DefaultConfig()
	mesh.System.Cores = 16
	mesh.Workload.Kernel = "fft"
	mesh.Workload.Scale = 4
	mesh.Workload.Iterations = 2
	meshTr, _, err := uncached.CaptureTraceContext(bg, mesh, onocsim.IdealNet)
	if err != nil {
		b.Fatal(err)
	}

	xbar := onocsim.DefaultConfig()
	xbar.System.Cores = 16
	xbarTr := hotspotBenchTrace(16, 8)

	return []struct {
		name string
		kind onocsim.NetworkKind
		cfg  onocsim.Config
		tr   *onocsim.Trace
	}{
		{"mesh", onocsim.Electrical, mesh, meshTr},
		{"crossbar", onocsim.Optical, xbar, xbarTr},
	}
}

// hotspotBenchTrace builds the crossbar seed benchmark's workload: per-source
// causal chains all targeting node 0, so destination-channel queueing feeds
// straight back into the schedule.
func hotspotBenchTrace(nodes, burst int) *onocsim.Trace {
	tr := &onocsim.Trace{Nodes: nodes, Workload: "hotspot"}
	id := trace.EventID(1)
	var tm onocsim.Tick
	prev := make([]trace.EventID, nodes)
	for i := 0; i < burst; i++ {
		for src := 1; src < nodes; src++ {
			var deps []trace.Dep
			if prev[src] != 0 {
				deps = []trace.Dep{{On: prev[src], Class: trace.DepCausal}}
			}
			tr.Events = append(tr.Events, trace.Event{
				ID: id, Src: src, Dst: 0, Bytes: 256, Gap: 2, Deps: deps,
				RefInject: tm, RefArrive: tm + 60,
			})
			prev[src] = id
			id++
			tm++
		}
	}
	tr.RefMakespan = tm + 200
	return tr
}

// benchSelfCorrectSeed measures the correction loop under one seeding mode
// across the contended-fabric cases, reporting replay rounds per fabric.
func benchSelfCorrectSeed(b *testing.B, mode string) {
	for _, tc := range seedBenchCases(b) {
		tc := tc
		b.Run(tc.name, func(b *testing.B) {
			cfg := tc.cfg
			cfg.SCTM.Seed = mode
			var rounds int
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := uncached.RunSelfCorrectionContext(bg, cfg, tc.tr, tc.kind)
				if err != nil {
					b.Fatal(err)
				}
				rounds = len(res.Iterations)
			}
			b.ReportMetric(float64(rounds), "rounds")
		})
	}
}

// BenchmarkSelfCorrectSeedZeroLoad is the baseline arm: the paper's
// zero-load round-0 seeding on both contended fabrics.
func BenchmarkSelfCorrectSeedZeroLoad(b *testing.B) { benchSelfCorrectSeed(b, "zeroload") }

// BenchmarkSelfCorrectSeedCoupled is the coupled arm: round 0 starts from a
// coupled replay's latencies, the loop's exact fixpoint, so it is one round
// plus the coupled pass. Compare its rounds metric (and ns/op) with the
// ZeroLoad benchmark.
func BenchmarkSelfCorrectSeedCoupled(b *testing.B) { benchSelfCorrectSeed(b, "coupled") }

// benchSelfCorrectIncr runs the correction loop in both execution modes on
// one workload: "full" replays every event every round, "incremental" resumes
// each round from the deepest frozen-prefix checkpoint. Results are
// byte-identical (the equivalence tests assert it); the replayed-events
// metric is the deterministic work counter the incremental mode shrinks, and
// ns/op shows how much of it wall clock recovers.
func benchSelfCorrectIncr(b *testing.B, kind onocsim.NetworkKind, cfg onocsim.Config, tr *onocsim.Trace) {
	for _, mode := range []struct {
		name string
		incr bool
	}{{"full", false}, {"incremental", true}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			c := cfg
			c.SCTM.Incremental = mode.incr
			var replayed int
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := uncached.RunSelfCorrectionContext(bg, c, tr, kind)
				if err != nil {
					b.Fatal(err)
				}
				replayed = res.ReplayedEvents
			}
			b.ReportMetric(float64(replayed), "replayed-events")
		})
	}
}

// incrBenchTrace builds the incremental benchmark's workload, the shape the
// frozen-prefix optimization targets: a long dependency-free head whose
// schedule never moves between rounds (dep-free events inject at their fixed
// gap), followed by parallel dependency chains all hammering one node, whose
// queueing delays shift the scheduled suffix round over round.
func incrBenchTrace(nodes int) *onocsim.Trace {
	tr := &onocsim.Trace{Nodes: nodes, Workload: "incr-bench", RefMakespan: 1_000_000}
	const head, tail, chains = 600, 200, 10
	for i := 0; i < head; i++ {
		at := onocsim.Tick(i * 8)
		tr.Events = append(tr.Events, trace.Event{
			ID: trace.EventID(i + 1), Src: i % nodes, Dst: (i*5 + 1) % nodes,
			Bytes: 64 + (i%4)*32, Class: noc.Class(i % 3),
			Kind: trace.KindData, Gap: at,
			RefInject: at, RefArrive: at + 40,
		})
	}
	for i := 0; i < tail; i++ {
		id := head + i + 1
		dep := trace.EventID(head)
		if i >= chains {
			dep = trace.EventID(id - chains)
		}
		at := onocsim.Tick(head*8 + i*4)
		tr.Events = append(tr.Events, trace.Event{
			ID: trace.EventID(id), Src: i % nodes, Dst: 3,
			Bytes: 256, Class: noc.Class(i % 3),
			Kind: trace.KindData, Gap: 4,
			Deps:      []trace.Dep{{On: dep, Class: trace.DepCausal}},
			RefInject: at, RefArrive: at + 80,
		})
	}
	return tr
}

// BenchmarkSelfCorrectIncrementalCrossbar compares full vs incremental
// correction on the optical crossbar.
func BenchmarkSelfCorrectIncrementalCrossbar(b *testing.B) {
	cfg := onocsim.DefaultConfig()
	cfg.System.Cores = 16
	benchSelfCorrectIncr(b, onocsim.Optical, cfg, incrBenchTrace(16))
}

// BenchmarkSelfCorrectIncrementalMesh is the same comparison on the
// electrical mesh, the expensive flit-level fabric where skipping the frozen
// prefix buys the most replay cycles.
func BenchmarkSelfCorrectIncrementalMesh(b *testing.B) {
	cfg := onocsim.DefaultConfig()
	cfg.System.Cores = 16
	benchSelfCorrectIncr(b, onocsim.Electrical, cfg, incrBenchTrace(16))
}

// benchEstimateVsCorrect pins the screening-speedup comparison: both arms
// run the identical (config, trace, fabric) triple, so the ns/op ratio
// between the estimate and the full correction loop is the speedup a sweep
// gains by simulating only the survivors.
func benchEstimateVsCorrect(b *testing.B, kind onocsim.NetworkKind, estimate bool) {
	cfg := onocsim.DefaultConfig()
	cfg.System.Cores = 16
	cfg.Workload.Scale = 4
	cfg.Workload.Iterations = 2
	tr, _, err := uncached.CaptureTraceContext(bg, cfg, onocsim.IdealNet)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if estimate {
			_, err = uncached.Estimate(cfg, tr, kind)
		} else {
			_, err = uncached.RunSelfCorrectionContext(bg, cfg, tr, kind)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(tr.NumEvents()), "events")
}

// BenchmarkAnalyticEstimate prices the closed-form estimator itself on the
// same config/trace as BenchmarkSelfCorrection — the ns/op ratio between the
// two is the screening speedup (the estimate never ticks a fabric). The
// optical crossbar replays in closed form itself, so the ratio there is a
// modest ~20×; the mesh pair below is where screening pays.
func BenchmarkAnalyticEstimate(b *testing.B) {
	benchEstimateVsCorrect(b, onocsim.Optical, true)
}

// BenchmarkSelfCorrectionMesh / BenchmarkAnalyticEstimateMesh are the same
// comparison on the electrical mesh, whose flit-level wormhole replay is the
// expensive fabric screening exists for: the estimate is several hundred
// times faster on this config, and the gap widens with core count.
func BenchmarkSelfCorrectionMesh(b *testing.B) {
	benchEstimateVsCorrect(b, onocsim.Electrical, false)
}

func BenchmarkAnalyticEstimateMesh(b *testing.B) {
	benchEstimateVsCorrect(b, onocsim.Electrical, true)
}
