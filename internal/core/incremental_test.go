package core

import (
	"reflect"
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/enoc"
	"onocsim/internal/hybrid"
	"onocsim/internal/noc"
	"onocsim/internal/onoc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// checkpointFabrics covers every fabric family the incremental loop can
// meet, parameterized by fault preset (ideal and mesh have no optical fault
// machinery and ignore the preset).
func checkpointFabrics(t *testing.T, nodes int, preset string) map[string]NetworkFactory {
	t.Helper()
	cfg := config.Default()
	faults, err := config.FaultPreset(preset)
	if err != nil {
		t.Fatal(err)
	}
	swmr := cfg.Optical
	swmr.Architecture = "swmr"
	return map[string]NetworkFactory{
		"ideal":  func() noc.Network { return noc.NewIdeal(nodes, 15, 16) },
		"mwsr":   func() noc.Network { return onoc.NewWithFaults(nodes, cfg.Optical, faults, 42) },
		"swmr":   func() noc.Network { return onoc.NewSWMRWithFaults(nodes, swmr, faults, 42) },
		"mesh":   func() noc.Network { return enoc.New(nodes, cfg.Mesh) },
		"hybrid": func() noc.Network { return hybrid.NewWithFaults(nodes, cfg.Mesh, cfg.Optical, 2, faults, 42) },
	}
}

// stripWork zeroes the execution-mode work counters: they are the only
// fields allowed to differ between full and incremental runs.
func stripWork(r CorrectionResult) CorrectionResult {
	r.ReplayedEvents = 0
	r.SavedCycles = 0
	return r
}

// TestIncrementalMatchesFull: the incremental correction loop is
// byte-identical to the full-replay loop — final result, full per-round
// trajectory, statistics block — for every fabric family, fault preset, and
// shard count.
func TestIncrementalMatchesFull(t *testing.T) {
	const nodes = 16
	sctm := config.Default().SCTM
	incr := sctm
	incr.Incremental = true
	for _, preset := range []string{"off", "light", "heavy"} {
		for name, mk := range checkpointFabrics(t, nodes, preset) {
			tr := randomTrace(99, 60, nodes)
			want, err := SelfCorrect(mk, tr, sctm)
			if err != nil {
				t.Fatalf("%s/%s full: %v", name, preset, err)
			}
			for _, k := range []int{1, 2, 8} {
				got, err := selfCorrectShards(mk, tr, incr, k)
				if err != nil {
					t.Fatalf("%s/%s shards=%d incremental: %v", name, preset, k, err)
				}
				if !reflect.DeepEqual(stripWork(want), stripWork(got)) {
					t.Fatalf("%s/%s shards=%d: incremental trajectory drift", name, preset, k)
				}
				if got.ReplayedEvents > len(tr.Events)*len(got.Iterations) {
					t.Fatalf("%s/%s shards=%d: replayed %d events, full loop would replay %d",
						name, preset, k, got.ReplayedEvents, len(tr.Events)*len(got.Iterations))
				}
			}
		}
	}
}

// TestSnapshotRestoreRoundTrip: capturing a snapshot mid-replay and resuming
// from it — on the same instance after it ran to completion, and on a fresh
// instance that never saw the prefix — reproduces the uninterrupted replay
// byte-for-byte on every fabric family and fault preset.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	const nodes = 16
	for _, preset := range []string{"off", "light", "heavy"} {
		for name, mk := range checkpointFabrics(t, nodes, preset) {
			tr := randomTrace(7, 80, nodes)
			inject := make([]sim.Tick, len(tr.Events))
			for i := range tr.Events {
				inject[i] = tr.Events[i].RefInject
			}
			n := len(tr.Events)
			// replay drains net from its current state; floor, injected and
			// done describe what a restored snapshot already holds.
			replay := func(net noc.Network, res *ReplayResult, floor sim.Tick, injected, done int, capture func(int)) error {
				it, err := tr.Pass()
				if err != nil {
					return err
				}
				defer it.Close()
				var pool noc.MsgPool
				net.SetDeliver(func(m *noc.Message) {
					idx := int(m.ID) - 1
					res.Arrive[idx] = m.Arrive
					res.Inject[idx] = m.Inject
					done++
					pool.Put(m)
				})
				pending := sim.NewCalendar[pendingMsg](ringTicks)
				dec := &streamDecoder{it: it, inject: inject, sm: suffixMinInject(inject), pending: &pending, floor: floor}
				if err := drain(net, dec, &pool, injected, &done, n, capture); err != nil {
					return err
				}
				finalize(res, tr.RefMakespan, dec.maxRef)
				res.Cycles, res.NetStats = net.Now(), net.Stats()
				return nil
			}

			// Uninterrupted replay, capturing one snapshot halfway through.
			net := mk()
			ck := net.(noc.Checkpointer)
			full := ReplayResult{Inject: make([]sim.Tick, n), Arrive: make([]sim.Tick, n)}
			var snap noc.Snapshot
			capture := func(injected int) {
				if snap == nil && injected >= n/2 {
					snap = ck.Snapshot()
				}
			}
			if err := replay(net, &full, noFloor, 0, 0, capture); err != nil {
				t.Fatalf("%s/%s full replay: %v", name, preset, err)
			}
			if snap == nil {
				t.Fatalf("%s/%s: no snapshot captured", name, preset)
			}

			resume := func(target noc.Network, label string) {
				t0 := snap.SnapshotAt()
				target.(noc.Checkpointer).Restore(snap)
				res := ReplayResult{Inject: make([]sim.Tick, n), Arrive: make([]sim.Tick, n)}
				next, done := 0, 0
				for i := 0; i < n; i++ {
					if inject[i] <= t0 {
						next++
					}
					if full.Arrive[i] <= t0 {
						res.Inject[i] = full.Inject[i]
						res.Arrive[i] = full.Arrive[i]
						done++
					}
				}
				if err := replay(target, &res, t0, next, done, nil); err != nil {
					t.Fatalf("%s/%s %s: %v", name, preset, label, err)
				}
				if !reflect.DeepEqual(full, res) {
					t.Fatalf("%s/%s %s: resumed replay drifted from uninterrupted replay", name, preset, label)
				}
			}
			// Same instance, dirty post-run state overwritten by Restore.
			resume(net, "same-instance resume")
			// Fresh identically-configured instance that never ran the prefix.
			resume(mk(), "fresh-instance resume")
		}
	}
}

// TestIncrementalEmptyFrozenPrefix: when the next round changes the very
// first injection, the frozen prefix is empty, every checkpoint is
// invalidated, and the runner must fall back to a full replay — correctly.
func TestIncrementalEmptyFrozenPrefix(t *testing.T) {
	const nodes = 16
	cfg := config.Default()
	tr := randomTrace(31, 50, nodes)
	n := len(tr.Events)
	mk := func() noc.Network { return onoc.New(nodes, cfg.Optical) }

	injA := make([]sim.Tick, n)
	for i := range tr.Events {
		injA[i] = tr.Events[i].RefInject
	}
	// Find the earliest-injecting event and move it: the boundary becomes its
	// old time, which precedes every checkpoint capture.
	first := 0
	for i := 1; i < n; i++ {
		if injA[i] < injA[first] {
			first = i
		}
	}
	injB := make([]sim.Tick, n)
	copy(injB, injA)
	injB[first] += 5

	r := newReplayer(mk, tr, 1, 0)
	r.ladder = true
	resA, err := r.run(injA)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.last.ladders[0]) == 0 {
		t.Fatal("round A captured no checkpoints")
	}
	resB, err := r.run(injB)
	if err != nil {
		t.Fatal(err)
	}
	if r.saved != 0 {
		t.Fatalf("saved %d cycles despite an empty frozen prefix", r.saved)
	}
	if r.replayed != 2*n {
		t.Fatalf("replayed %d events, want %d (two full rounds)", r.replayed, 2*n)
	}
	wantA, err := ReplaySchedule(mk(), tr, injA)
	if err != nil {
		t.Fatal(err)
	}
	wantB, err := ReplaySchedule(mk(), tr, injB)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(wantA, resA) {
		t.Fatal("round A drifted from a plain full replay")
	}
	if !reflect.DeepEqual(wantB, resB) {
		t.Fatal("fallback round B drifted from a plain full replay")
	}
}

// TestIncrementalIdenticalScheduleResumesDeep: re-running an unchanged
// schedule must resume from the deepest checkpoint (the boundary is Never),
// replaying only the post-checkpoint suffix.
func TestIncrementalIdenticalScheduleResumesDeep(t *testing.T) {
	const nodes = 16
	cfg := config.Default()
	tr := randomTrace(13, 64, nodes)
	n := len(tr.Events)
	inject := make([]sim.Tick, n)
	for i := range tr.Events {
		inject[i] = tr.Events[i].RefInject
	}
	r := newReplayer(func() noc.Network { return onoc.New(nodes, cfg.Optical) }, tr, 1, 0)
	r.ladder = true
	resA, err := r.run(inject)
	if err != nil {
		t.Fatal(err)
	}
	resB, err := r.run(inject)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resA, resB) {
		t.Fatal("identical schedule replayed differently")
	}
	if r.saved == 0 {
		t.Fatal("identical schedule saved no cycles")
	}
	// The deepest checkpoint sits at the last octile: at most n/8 injections
	// (plus threshold rounding) remain.
	if suffix := r.replayed - n; suffix > n/8+8 {
		t.Fatalf("second round replayed %d events, want at most the last octile (~%d)", suffix, n/8)
	}
}

// incrGateTrace builds the saved-work gate workload: a dependency-free head
// (75% of events, schedule constant across rounds — dep-free events inject
// at their Gap regardless of latency estimates) followed by a hotspot
// dependency-chain tail whose schedule keeps shifting while the estimates
// converge. The frozen-prefix boundary of every later round lands at the
// head/tail seam, so checkpoints covering the head survive all rounds.
func incrGateTrace(nodes int) *trace.Trace {
	tr := &trace.Trace{Nodes: nodes, Workload: "incr-gate", RefMakespan: 1_000_000}
	const head, tail = 150, 50
	for i := 0; i < head; i++ {
		at := sim.Tick(i * 8)
		tr.Events = append(tr.Events, trace.Event{
			ID: trace.EventID(i + 1), Src: i % nodes, Dst: (i*5 + 1) % nodes,
			Bytes: 64 + (i%4)*32, Class: noc.Class(i % 3),
			Kind: trace.KindData, Gap: at,
			RefInject: at, RefArrive: at + 40,
		})
	}
	// Ten parallel dependency chains, all hammering node 3: the chain heads
	// collide, queueing delays diverge from the zero-load seed, and every
	// downstream link's scheduled injection shifts round over round.
	const chains = 10
	for i := 0; i < tail; i++ {
		id := head + i + 1
		dep := trace.EventID(head) // chain anchors hang off the last head event
		if i >= chains {
			dep = trace.EventID(id - chains)
		}
		at := sim.Tick(head*8 + i*4)
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

// TestIncrementalSavesReplayedEvents is the headline gate: on quick
// converging workloads the incremental loop must replay at least 30% fewer
// events than the full loop, on a crossbar and on the mesh. The counter is
// deterministic — no wall-clock flakiness.
func TestIncrementalSavesReplayedEvents(t *testing.T) {
	const nodes = 16
	cfg := config.Default()
	sctm := cfg.SCTM
	incr := sctm
	incr.Incremental = true
	fabrics := map[string]NetworkFactory{
		"crossbar": func() noc.Network { return onoc.New(nodes, cfg.Optical) },
		"mesh":     func() noc.Network { return enoc.New(nodes, cfg.Mesh) },
	}
	for name, mk := range fabrics {
		tr := incrGateTrace(nodes)
		full, err := SelfCorrect(mk, tr, sctm)
		if err != nil {
			t.Fatalf("%s full: %v", name, err)
		}
		got, err := SelfCorrect(mk, tr, incr)
		if err != nil {
			t.Fatalf("%s incremental: %v", name, err)
		}
		if !reflect.DeepEqual(stripWork(full), stripWork(got)) {
			t.Fatalf("%s: incremental drifted", name)
		}
		if full.ReplayedEvents == 0 {
			t.Fatalf("%s: full loop reports zero replayed events", name)
		}
		saved := float64(full.ReplayedEvents-got.ReplayedEvents) / float64(full.ReplayedEvents)
		t.Logf("%s: full=%d incremental=%d saved=%.1f%% (rounds=%d, saved cycles=%d)",
			name, full.ReplayedEvents, got.ReplayedEvents, 100*saved, len(got.Iterations), got.SavedCycles)
		if saved < 0.30 {
			t.Fatalf("%s: incremental saved only %.1f%% of replayed events, want >= 30%%", name, 100*saved)
		}
	}
}
