package fabric_test

import (
	"bytes"
	"encoding/json"
	"testing"

	"onocsim/internal/analytic"
	"onocsim/internal/config"
	"onocsim/internal/fabric"
	"onocsim/internal/noc"
	"onocsim/internal/trace"
	"onocsim/internal/workload"
)

// FuzzConfig holds Validate to what the constructors assume: any document
// config.Parse accepts builds every kind, answers ZeroLoadLatency for the
// corner pairs, delivers a lone corner-to-corner message within a tick bound,
// and prices a small generated trace in closed form — all without panicking
// (onoc.NewCrossbar panics on exactly the inputs Validate is trusted to
// refuse). The test package is external because the estimator imports
// internal/fabric.
func FuzzConfig(f *testing.F) {
	for _, edit := range []func(*config.Config){
		func(*config.Config) {},
		func(c *config.Config) { c.Faults, _ = config.FaultPreset("light") },
		func(c *config.Config) { c.Faults, _ = config.FaultPreset("heavy") },
		func(c *config.Config) { c.Optical.Architecture = "swmr" },
		func(c *config.Config) { c.Mesh.Topology, c.Mesh.VCs = "torus", 6 },
		func(c *config.Config) { c.System.Cores = config.MaxCores },
		func(c *config.Config) { c.System.Cores = 1 }, // the fuzzer's first find: a crossbar needs two nodes
	} {
		cfg := config.Default()
		edit(&cfg)
		doc, err := json.Marshal(cfg)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		cfg, err := config.Parse(doc)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		const events = 64
		if _, err := workload.WriteHuge(&buf, workload.HugeSpec{Nodes: cfg.System.Cores, Events: events, Pattern: "hotspot", Bytes: 64, Gap: 5, Seed: 1}); err != nil {
			t.Fatal(err)
		}
		tr, err := trace.ReadBinary(&buf)
		if err != nil {
			t.Fatal(err)
		}
		last := cfg.System.Cores - 1
		for _, kind := range []config.NetworkKind{config.NetElectrical, config.NetOptical, config.NetIdeal, config.NetHybrid} {
			est, err := analytic.Estimate(cfg, kind, tr)
			if err != nil || len(est.Latency) != events || est.Makespan < est.ZeroLoadMakespan {
				t.Fatalf("%s: estimate of %d events: %d latencies, makespan %d, zero-load makespan %d, err %v",
					kind, events, len(est.Latency), est.Makespan, est.ZeroLoadMakespan, err)
			}
			net, err := fabric.Build(cfg, kind)
			if err != nil {
				t.Fatalf("%s: %v", kind, err)
			}
			for _, p := range [][2]int{{0, last}, {last, 0}, {last, last}} {
				if zll := net.ZeroLoadLatency(p[0], p[1], 64); zll < 1 {
					t.Fatalf("%s: ZeroLoadLatency(%d, %d) = %d", kind, p[0], p[1], zll)
				}
			}
			// The mesh ticks every cycle a flit is in flight, so the bound
			// follows the zero-load latency; slower documents are built and
			// priced but not ticked.
			bound := 4*net.ZeroLoadLatency(0, last, 64) + 4096
			if bound > 1<<20 {
				continue
			}
			net.SetDeliver(func(*noc.Message) {})
			net.Inject(&noc.Message{ID: 1, Src: 0, Dst: last, Bytes: 64})
			for left := bound; net.NextWake() != noc.Never; left-- {
				if left == 0 {
					t.Fatalf("%s: a lone message still in flight after %d ticks", kind, bound)
				}
				if wake := net.NextWake(); wake > net.Now()+1 && wake != noc.Never {
					net.SkipTo(wake - 1)
				}
				net.Tick()
			}
		}
	})
}
