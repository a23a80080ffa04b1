package core

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/fabric"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// heldTrace is n events on 16 nodes whose first message injects so late
// that the second, which depends on it, holds the deriver's backlog while the
// rest, due early and each depending on the early one before it, are
// replayed. Event 4 500 injects later still and holds event 4 501, so the
// backlog blocks again once more than half of it has been derived, and is
// compacted.
func heldTrace(n int) *trace.Trace {
	tr := &trace.Trace{Nodes: 16, Workload: "held", RefMakespan: 1 << 22}
	late := map[int]sim.Tick{0: 1 << 20, 4500: 2 << 20}
	prev := -1 // the last event due early
	for i := 0; i < n; i++ {
		e := trace.Event{
			ID: trace.EventID(i + 1), Src: i % 16, Dst: (i*7 + 3) % 16, Bytes: 8,
			Class: noc.ClassRequest, Kind: trace.KindData, Gap: 1,
		}
		switch {
		case late[i] > 0:
			e.Gap = late[i]
		case late[i-1] > 0:
			e.Deps = []trace.Dep{{On: trace.EventID(i), Class: trace.DepProgram}}
		default:
			if prev >= 0 {
				e.Deps = []trace.Dep{{On: trace.EventID(prev + 1), Class: trace.DepProgram}}
			}
			prev = i
		}
		e.RefInject, e.RefArrive = sim.Tick(i), sim.Tick(i+20)
		tr.Events = append(tr.Events, e)
	}
	return tr
}

// TestReplayDerivesNextSchedule: the schedule a run derives while it replays,
// and the one deriveAll derives in a pass of its own, equal ScheduleStream
// over the run's measured latencies, round after round, on every fabric kind,
// from memory and from a file, under the full model and both R8 ablations.
// The held trace builds a backlog of more than 4 096
// events behind one undelivered dependency, through a file pass whose
// read-ahead window is 64 events: the backlog is not part of the window.
func TestReplayDerivesNextSchedule(t *testing.T) {
	cfg := config.Default()
	cfg.System.Cores = 16
	dir := t.TempDir()
	traces := map[string]*trace.Trace{"random": randomTrace(21, 300, 16), "held": heldTrace(5000)}
	ablations := map[string]ScheduleOptions{
		"full":      {},
		"no-sync":   {DisableSyncDeps: true},
		"no-causal": {DisableCausalDeps: true},
	}
	for _, kind := range []config.NetworkKind{config.NetElectrical, config.NetOptical, config.NetIdeal, config.NetHybrid} {
		factory := func() noc.Network {
			net, err := fabric.Build(cfg, kind)
			if err != nil {
				t.Fatal(err)
			}
			return net
		}
		for tname, tr := range traces {
			path := filepath.Join(dir, tname+".sctm")
			if err := trace.SaveFile(path, tr); err != nil {
				t.Fatal(err)
			}
			file, err := trace.NewFileSource(path)
			if err != nil {
				t.Fatal(err)
			}
			window := 0
			if tname == "held" {
				window = 64
			}
			for sname, src := range map[string]trace.Source{"mem": tr, "file": file} {
				for aname, opts := range ablations {
					name := fmt.Sprintf("%s/%s/%s/%s", kind, tname, sname, aname)
					checkDerivedRounds(t, name, factory, src, window, opts)
				}
			}
		}
	}
}

// checkDerivedRounds runs three rounds of a correction by hand, each from the
// schedule the previous one derived, and holds every derived schedule, and
// deriveAll's over the same round, to ScheduleStream's.
func checkDerivedRounds(t *testing.T, name string, factory NetworkFactory, src trace.Source, window int, opts ScheduleOptions) {
	t.Helper()
	n := src.Meta().NumEvents
	r := newReplayer(factory, src, window)
	r.derive.opts = opts
	probe := r.fabric(0)
	zero := make([]sim.Tick, n)
	if err := EachEvent(src, func(i int, e *trace.Event) { zero[i] = probe.ZeroLoadLatency(e.Src, e.Dst, e.Bytes) }); err != nil {
		t.Fatal(err)
	}
	inject, err := ScheduleStream(src, zero, opts)
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 3; round++ {
		r.derive.peak = 0
		r.next = make([]sim.Tick, n)
		res, err := r.run(inject)
		if err != nil {
			t.Fatalf("%s round %d: %v", name, round, err)
		}
		want, err := ScheduleStream(src, res.Latencies(), opts)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(r.next, want) {
			for i := range want {
				if r.next[i] != want[i] {
					t.Fatalf("%s round %d: event %d derived at %d, ScheduleStream says %d", name, round, i+1, r.next[i], want[i])
				}
			}
		}
		if src.Meta().Workload == "held" && round == 0 && r.derive.peak <= 4096 {
			t.Fatalf("%s: the backlog peaked at %d events, want more than 4 096", name, r.derive.peak)
		}
		all := make([]sim.Tick, n)
		if err := r.deriveAll(all, res); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(all, want) {
			t.Fatalf("%s round %d: deriveAll differs from ScheduleStream", name, round)
		}
		inject = r.next
	}
}
