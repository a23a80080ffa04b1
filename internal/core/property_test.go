package core

import (
	"reflect"
	"testing"
	"testing/quick"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

// randomTrace builds a structurally valid random DAG trace.
func randomTrace(seed uint64, n, nodes int) *trace.Trace {
	rng := sim.NewRNG(seed)
	tr := &trace.Trace{Nodes: nodes, Workload: "prop", RefMakespan: 1_000_000}
	now := sim.Tick(0)
	for i := 0; i < n; i++ {
		id := trace.EventID(i + 1)
		e := trace.Event{
			ID:    id,
			Src:   rng.Intn(nodes),
			Dst:   rng.Intn(nodes),
			Bytes: 1 + rng.Intn(128),
			Class: noc.Class(rng.Intn(3)),
			Kind:  trace.KindData,
			Gap:   sim.Tick(rng.Intn(30)),
		}
		ndeps := rng.Intn(3)
		for d := 0; d < ndeps && i > 0; d++ {
			e.Deps = append(e.Deps, trace.Dep{
				On:    trace.EventID(1 + rng.Intn(i)),
				Class: trace.DepClass(rng.Intn(3)),
			})
		}
		now += e.Gap + 1
		e.RefInject = now
		e.RefArrive = now + sim.Tick(1+rng.Intn(60))
		tr.Events = append(tr.Events, e)
	}
	return tr
}

// TestSchedulePropertyRespectsDeps: for random traces and random latency
// estimates, every event's scheduled injection must be at least each kept
// dependency's estimated arrival plus the gap.
func TestSchedulePropertyRespectsDeps(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 2
		tr := randomTrace(seed, n, 8)
		if err := tr.Validate(); err != nil {
			return false
		}
		rng := sim.NewRNG(seed ^ 0xabcd)
		lat := make([]sim.Tick, n)
		for i := range lat {
			lat[i] = sim.Tick(1 + rng.Intn(100))
		}
		inj := Schedule(tr, lat, ScheduleOptions{})
		for i := range tr.Events {
			e := &tr.Events[i]
			for _, d := range e.Deps {
				di := int(d.On) - 1
				if inj[i] < inj[di]+lat[di]+e.Gap {
					return false
				}
			}
			if len(e.Deps) == 0 && inj[i] != e.Gap {
				return false
			}
		}
		// The correction loop derives its schedules from a source; analytic
		// seeding from the materialized trace. Same recurrence, same answer,
		// under every ablation.
		for _, opts := range []ScheduleOptions{{}, {DisableSyncDeps: true}, {DisableCausalDeps: true}} {
			streamed, err := ScheduleStream(tr, lat, opts)
			if err != nil || !reflect.DeepEqual(streamed, Schedule(tr, lat, opts)) {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestSchedulePropertyMonotoneInLatency: uniformly increasing every latency
// estimate can never make any injection happen earlier.
func TestSchedulePropertyMonotoneInLatency(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%60) + 2
		tr := randomTrace(seed, n, 8)
		lat1 := make([]sim.Tick, n)
		lat2 := make([]sim.Tick, n)
		rng := sim.NewRNG(seed ^ 0x1234)
		for i := range lat1 {
			lat1[i] = sim.Tick(1 + rng.Intn(50))
			lat2[i] = lat1[i] + sim.Tick(rng.Intn(50))
		}
		a := Schedule(tr, lat1, ScheduleOptions{})
		b := Schedule(tr, lat2, ScheduleOptions{})
		for i := range a {
			if b[i] < a[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestReplayPropertyAllDelivered: every random trace replays to completion
// on every fabric kind with all arrivals after their injections.
func TestReplayPropertyAllDelivered(t *testing.T) {
	fabrics := map[string]func() noc.Network{
		"ideal": func() noc.Network { return noc.NewIdeal(16, 15, 16) },
	}
	for name, mk := range fabrics {
		name, mk := name, mk
		t.Run(name, func(t *testing.T) {
			if err := quick.Check(func(seed uint64, nRaw uint8) bool {
				n := int(nRaw%50) + 1
				tr := randomTrace(seed, n, 16)
				res, err := NaiveReplay(mk(), tr)
				if err != nil {
					return false
				}
				for i := range res.Arrive {
					if res.Arrive[i] <= res.Inject[i] && tr.Events[i].Src != tr.Events[i].Dst {
						return false
					}
				}
				return true
			}, &quick.Config{MaxCount: 40}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestCoupledReplayNeverBeatsSchedule: on a deterministic fixed-latency
// fabric, the coupled replay's injections equal the analytic schedule for
// any random trace (the two resolution strategies agree without contention).
func TestCoupledReplayNeverBeatsSchedule(t *testing.T) {
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		tr := randomTrace(seed, n, 8)
		lat := make([]sim.Tick, n)
		net := noc.NewIdeal(8, 25, 0)
		for i := range lat {
			e := &tr.Events[i]
			lat[i] = net.ZeroLoadLatency(e.Src, e.Dst, e.Bytes)
		}
		want := Schedule(tr, lat, ScheduleOptions{})
		res, err := CoupledReplay(noc.NewIdeal(8, 25, 0), tr, ScheduleOptions{})
		if err != nil {
			return false
		}
		for i := range want {
			if res.Inject[i] != want[i] {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
