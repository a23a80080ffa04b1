package analytic

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/fabric"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// hotspotTrace builds a contended synthetic trace: every node fires bursts
// at destination 0 (plus a self message, which bypasses the fabric), with
// reference timings loose enough that the analytic tail term is exercised.
func hotspotTrace(nodes, burst int) *trace.Trace {
	tr := &trace.Trace{Nodes: nodes, Workload: "hotspot"}
	id := trace.EventID(1)
	var t sim.Tick
	for b := 0; b < burst; b++ {
		for src := 0; src < nodes; src++ {
			dst := 0
			if src == 0 {
				dst = src // self-traffic
			}
			tr.Events = append(tr.Events, trace.Event{
				ID: id, Src: src, Dst: dst, Bytes: 64 + 8*src, Gap: 2,
				RefInject: t, RefArrive: t + 40,
			})
			id++
			t += 3
		}
	}
	tr.RefMakespan = t + 500
	return tr
}

// uniformTrace spreads single messages across distinct pairs: negligible
// per-resource load, so contention waits should stay near zero.
func uniformTrace(nodes int) *trace.Trace {
	tr := &trace.Trace{Nodes: nodes, Workload: "uniform"}
	for i := 0; i < nodes; i++ {
		tr.Events = append(tr.Events, trace.Event{
			ID: trace.EventID(i + 1), Src: i, Dst: (i + 1) % nodes, Bytes: 32,
			Gap: sim.Tick(1000 * i), RefInject: sim.Tick(1000 * i), RefArrive: sim.Tick(1000*i + 50),
		})
	}
	tr.RefMakespan = sim.Tick(1000 * nodes)
	return tr
}

func cfgFor(t *testing.T, kind config.NetworkKind, mutate func(*config.Config)) config.Config {
	t.Helper()
	cfg := config.Default()
	cfg.System.Cores = 16
	if mutate != nil {
		mutate(&cfg)
	}
	if err := cfg.Validate(); err != nil {
		t.Fatalf("config: %v", err)
	}
	return cfg
}

func allKinds() map[string]config.NetworkKind {
	return map[string]config.NetworkKind{
		"electrical": config.NetElectrical,
		"optical":    config.NetOptical,
		"ideal":      config.NetIdeal,
		"hybrid":     config.NetHybrid,
	}
}

func TestEstimateAllKinds(t *testing.T) {
	tr := hotspotTrace(16, 8)
	for name, kind := range allKinds() {
		t.Run(name, func(t *testing.T) {
			cfg := cfgFor(t, kind, nil)
			res, err := Estimate(cfg, kind, tr)
			if err != nil {
				t.Fatalf("Estimate: %v", err)
			}
			if len(res.Latency) != len(tr.Events) {
				t.Fatalf("got %d latencies for %d events", len(res.Latency), len(tr.Events))
			}
			for i, l := range res.Latency {
				if l < 1 {
					t.Fatalf("latency[%d] = %d, want ≥1", i, l)
				}
			}
			if res.MeanLatency <= 0 {
				t.Fatalf("mean latency %v, want >0", res.MeanLatency)
			}
			if res.Makespan < res.ZeroLoadMakespan {
				t.Fatalf("makespan %d below zero-load %d", res.Makespan, res.ZeroLoadMakespan)
			}
		})
	}
}

func TestEstimateSWMR(t *testing.T) {
	cfg := cfgFor(t, config.NetOptical, func(c *config.Config) { c.Optical.Architecture = "swmr" })
	res, err := Estimate(cfg, config.NetOptical, hotspotTrace(16, 8))
	if err != nil {
		t.Fatalf("Estimate: %v", err)
	}
	if res.Makespan <= 0 {
		t.Fatalf("makespan %d, want >0", res.Makespan)
	}
}

func TestEstimateDeterministic(t *testing.T) {
	tr := hotspotTrace(16, 6)
	for name, kind := range allKinds() {
		cfg := cfgFor(t, kind, nil)
		a, err := Estimate(cfg, kind, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b, err := Estimate(cfg, kind, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: estimate not deterministic", name)
		}
	}
}

func TestContentionRaisesHotspotEstimate(t *testing.T) {
	// A destination-0 hotspot must cost more than zero-load on the
	// contended fabrics; that gap is the whole point of the model.
	tr := hotspotTrace(16, 16)
	for _, name := range []string{"electrical", "optical"} {
		kind := allKinds()[name]
		cfg := cfgFor(t, kind, nil)
		res, err := Estimate(cfg, kind, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if res.Makespan <= res.ZeroLoadMakespan {
			t.Fatalf("%s: hotspot makespan %d not above zero-load %d", name, res.Makespan, res.ZeroLoadMakespan)
		}
	}
}

func TestUncontendedStaysNearZeroLoad(t *testing.T) {
	tr := uniformTrace(16)
	for name, kind := range allKinds() {
		cfg := cfgFor(t, kind, nil)
		res, err := Estimate(cfg, kind, tr)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		probe, err := fabric.Build(cfg, kind)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range tr.Events {
			e := &tr.Events[i]
			zl := probe.ZeroLoadLatency(e.Src, e.Dst, e.Bytes)
			if res.Latency[i] < zl {
				t.Fatalf("%s: latency[%d] = %d below zero-load %d", name, i, res.Latency[i], zl)
			}
			// One isolated message per resource: the wait term must stay a
			// small fraction of the zero-load latency.
			if res.Latency[i] > 2*zl+4 {
				t.Fatalf("%s: latency[%d] = %d far above zero-load %d on an idle fabric", name, i, res.Latency[i], zl)
			}
		}
	}
}

func TestEstimateRejectsMismatchedNodes(t *testing.T) {
	cfg := cfgFor(t, config.NetOptical, nil)
	if _, err := Estimate(cfg, config.NetOptical, hotspotTrace(8, 2)); err == nil {
		t.Fatal("want node-count mismatch error")
	}
	if seed := Seed(cfg, config.NetOptical, hotspotTrace(8, 2)); seed != nil {
		t.Fatal("Seed must return nil on estimator error")
	}
}

func TestEstimateRejectsUnknownKind(t *testing.T) {
	cfg := cfgFor(t, config.NetOptical, nil)
	if _, err := Estimate(cfg, config.NetworkKind("quantum"), hotspotTrace(16, 1)); err == nil {
		t.Fatal("want unknown-kind error")
	}
}

func TestSeedMatchesEstimateLatency(t *testing.T) {
	cfg := cfgFor(t, config.NetElectrical, nil)
	tr := hotspotTrace(16, 4)
	res, err := Estimate(cfg, config.NetElectrical, tr)
	if err != nil {
		t.Fatal(err)
	}
	if got := Seed(cfg, config.NetElectrical, tr); !reflect.DeepEqual(got, res.Latency) {
		t.Fatal("Seed diverges from Estimate().Latency")
	}
}

func TestMeshWalkMatchesManhattan(t *testing.T) {
	for _, topo := range []string{"mesh", "torus"} {
		cfg := config.Default()
		cfg.Mesh.Topology = topo
		m := newMeshModel(cfg, &demand{nodes: 16}, nil)
		w := m.width
		for src := 0; src < 16; src++ {
			for dst := 0; dst < 16; dst++ {
				hops := 0
				m.walk(src, dst, func(int) { hops++ })
				hx := abs(src%w - dst%w)
				hy := abs(src/w - dst/w)
				if topo == "torus" {
					if wr := w - hx; wr < hx {
						hx = wr
					}
					if wr := w - hy; wr < hy {
						hy = wr
					}
				}
				if hops != hx+hy {
					t.Fatalf("%s walk %d->%d took %d hops, want %d", topo, src, dst, hops, hx+hy)
				}
			}
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

func TestFaultedEstimateNotBelowHealthy(t *testing.T) {
	tr := hotspotTrace(16, 8)
	healthy := cfgFor(t, config.NetOptical, nil)
	base, err := Estimate(healthy, config.NetOptical, tr)
	if err != nil {
		t.Fatal(err)
	}
	faulted := cfgFor(t, config.NetOptical, func(c *config.Config) {
		c.Faults.LaserDroopDB = 3
		c.Faults.ThermalMTBF = 4000
		c.Faults.ThermalDuration = 1000
		c.Faults.ThermalDetune = 0.5
	})
	deg, err := Estimate(faulted, config.NetOptical, tr)
	if err != nil {
		t.Fatal(err)
	}
	if deg.Makespan < base.Makespan {
		t.Fatalf("faulted makespan %d below healthy %d", deg.Makespan, base.Makespan)
	}
}

// TestEstimateConcurrent runs Estimate from many goroutines mixing kinds and
// configs: results must match the serial answers, and the race detector
// checks that calls share nothing — each builds, queries and drops its own
// probe (probes memoize serialization tables while answering).
func TestEstimateConcurrent(t *testing.T) {
	tr := hotspotTrace(16, 8)
	kinds := allKinds()
	want := map[string]Result{}
	for name, kind := range kinds {
		res, err := Estimate(cfgFor(t, kind, nil), kind, tr)
		if err != nil {
			t.Fatal(err)
		}
		want[name] = res
	}
	cfgs := map[string]config.Config{}
	for name, kind := range kinds {
		cfgs[name] = cfgFor(t, kind, nil)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for i := 0; i < 16; i++ {
		for name, kind := range kinds {
			wg.Add(1)
			go func(name string, kind config.NetworkKind) {
				defer wg.Done()
				res, err := Estimate(cfgs[name], kind, tr)
				if err != nil {
					errs <- err
					return
				}
				if !reflect.DeepEqual(res, want[name]) {
					errs <- fmt.Errorf("%s: concurrent estimate diverged", name)
				}
			}(name, kind)
		}
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}
