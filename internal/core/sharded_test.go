package core

import (
	"context"
	"reflect"
	"testing"
	"testing/quick"

	"onocsim/internal/config"
	"onocsim/internal/enoc"
	"onocsim/internal/noc"
	"onocsim/internal/onoc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// shardFabrics covers every fabric family the sharded replayer can meet:
// the three ScheduleShardable ones and the mesh, which must take the serial
// fallback and still agree.
func shardFabrics(nodes int) map[string]NetworkFactory {
	cfg := config.Default()
	return map[string]NetworkFactory{
		"ideal": func() noc.Network { return noc.NewIdeal(nodes, 15, 16) },
		"mwsr":  func() noc.Network { return onoc.New(nodes, cfg.Optical) },
		"swmr": func() noc.Network {
			c := cfg.Optical
			c.Architecture = "swmr"
			return onoc.NewSWMR(nodes, c)
		},
		"mesh": func() noc.Network { return enoc.New(nodes, cfg.Mesh) },
	}
}

// selfCorrectShards runs the correction loop with every round's replay split
// across the given number of shards.
func selfCorrectShards(factory NetworkFactory, tr *trace.Trace, cfg config.SCTM, shards int) (CorrectionResult, error) {
	res, _, err := SelfCorrectParkableCtx(context.Background(), factory, tr, cfg, shards, nil, nil)
	return res, err
}

// TestShardedReplayMatchesSerial: for random traces, the sharded replay is
// byte-identical to the serial engine — per-event times, makespan, cycle
// count, and the full statistics block — for every shard count, on every
// fabric family.
func TestShardedReplayMatchesSerial(t *testing.T) {
	const nodes = 16
	for name, mk := range shardFabrics(nodes) {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			if err := quick.Check(func(seed uint64, nRaw uint8) bool {
				n := int(nRaw%50) + 1
				tr := randomTrace(seed, n, nodes)
				want, err := NaiveReplay(mk(), tr)
				if err != nil {
					t.Logf("serial replay failed: %v", err)
					return false
				}
				for _, k := range []int{1, 2, 3, 8} {
					got, err := NaiveReplaySharded(mk, tr, k)
					if err != nil {
						t.Logf("shards=%d: %v", k, err)
						return false
					}
					if !reflect.DeepEqual(want, got) {
						t.Logf("shards=%d: result drift (seed=%d n=%d)", k, seed, n)
						return false
					}
				}
				return true
			}, &quick.Config{MaxCount: 25}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestShardedReplayHotspot drives every source at one destination (the MWSR
// worst case: a single channel arbitrating all senders) and one source at
// every destination (the SWMR/ideal worst case: a single send port), so the
// busiest per-node resources land in one shard while others are empty.
func TestShardedReplayHotspot(t *testing.T) {
	const nodes = 16
	build := func(toOne bool) *trace.Trace {
		tr := &trace.Trace{Nodes: nodes, Workload: "hotspot", RefMakespan: 100000}
		now := sim.Tick(0)
		for i := 0; i < 120; i++ {
			src, dst := i%nodes, 3
			if !toOne {
				src, dst = 3, i%nodes
			}
			now += sim.Tick(i % 4)
			tr.Events = append(tr.Events, trace.Event{
				ID: trace.EventID(i + 1), Src: src, Dst: dst,
				Bytes: 16 + (i%5)*32, Class: noc.Class(i % 3),
				Kind: trace.KindData, Gap: 1,
				RefInject: now, RefArrive: now + 40,
			})
		}
		return tr
	}
	for name, mk := range shardFabrics(nodes) {
		for _, toOne := range []bool{true, false} {
			tr := build(toOne)
			want, err := NaiveReplay(mk(), tr)
			if err != nil {
				t.Fatalf("%s serial: %v", name, err)
			}
			for _, k := range []int{2, 5, 8} {
				got, err := NaiveReplaySharded(mk, tr, k)
				if err != nil {
					t.Fatalf("%s shards=%d: %v", name, k, err)
				}
				if !reflect.DeepEqual(want, got) {
					t.Fatalf("%s shards=%d toOne=%v: result drift", name, k, toOne)
				}
			}
		}
	}
}

// TestShardedReplayerReuse: one replayer instance must stay byte-exact
// across consecutive runs (the correction loop reuses it every round).
func TestShardedReplayerReuse(t *testing.T) {
	const nodes = 16
	cfg := config.Default()
	tr := randomTrace(77, 40, nodes)
	rep := newReplayer(func() noc.Network { return onoc.New(nodes, cfg.Optical) }, tr, 4, 0)
	inject := make([]sim.Tick, len(tr.Events))
	for trial := 0; trial < 3; trial++ {
		for i := range tr.Events {
			inject[i] = tr.Events[i].RefInject + sim.Tick(trial*(i%7))
		}
		want, err := ReplaySchedule(onoc.New(nodes, cfg.Optical), tr, inject)
		if err != nil {
			t.Fatal(err)
		}
		got, err := rep.run(inject)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: reused replayer drifted", trial)
		}
	}
}

// TestSelfCorrectShardedMatchesSerial: the whole correction loop — final
// result, per-round trajectory, convergence flag, total cost — is invariant
// under the shard count.
func TestSelfCorrectShardedMatchesSerial(t *testing.T) {
	const nodes = 16
	sctm := config.Default().SCTM
	for name, mk := range shardFabrics(nodes) {
		tr := randomTrace(99, 60, nodes)
		want, err := SelfCorrect(mk, tr, sctm)
		if err != nil {
			t.Fatalf("%s serial: %v", name, err)
		}
		for _, k := range []int{1, 2, 3, 8} {
			got, err := selfCorrectShards(mk, tr, sctm, k)
			if err != nil {
				t.Fatalf("%s shards=%d: %v", name, k, err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Fatalf("%s shards=%d: correction trajectory drift", name, k)
			}
		}
	}
}

// TestShardedReplayRejections mirrors the serial engine's input validation.
func TestShardedReplayRejections(t *testing.T) {
	tr := randomTrace(5, 10, 8)
	factory := func() noc.Network { return noc.NewIdeal(8, 10, 0) }
	if _, err := ReplayScheduleSharded(factory, tr, make([]sim.Tick, 3), 4); err == nil {
		t.Fatal("length mismatch not rejected")
	}
	bad := func() noc.Network { return noc.NewIdeal(4, 10, 0) }
	if _, err := NaiveReplaySharded(bad, tr, 4); err == nil {
		t.Fatal("node mismatch not rejected")
	}
}
