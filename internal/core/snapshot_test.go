package core

import (
	"reflect"
	"slices"
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/enoc"
	"onocsim/internal/hybrid"
	"onocsim/internal/noc"
	"onocsim/internal/onoc"
	"onocsim/internal/sim"
)

// fabricFamilies covers every fabric family a replay can meet, parameterized
// by fault preset (ideal and mesh have no optical fault machinery and ignore
// the preset).
func fabricFamilies(t *testing.T, nodes int, preset string) map[string]NetworkFactory {
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
		"mwsr":   func() noc.Network { return onoc.NewCrossbar(nodes, cfg.Optical, faults, 42) },
		"swmr":   func() noc.Network { return onoc.NewCrossbar(nodes, swmr, faults, 42) },
		"mesh":   func() noc.Network { return enoc.New(nodes, cfg.Mesh) },
		"hybrid": func() noc.Network { return hybrid.New(nodes, cfg.Mesh, cfg.Optical, 2, faults, 42) },
	}
}

// snapshotFeed is a schedule feed that calls snap once, at the top of the
// first drain iteration at or after cycle at: after that cycle's injections,
// when the fabric holds exactly every injection and delivery up to Now().
type snapshotFeed struct {
	*streamDecoder
	at   sim.Tick
	snap func()
}

func (f *snapshotFeed) injectDue(now sim.Tick, net noc.Network, pool *noc.MsgPool) error {
	err := f.streamDecoder.injectDue(now, net, pool)
	if err == nil && f.snap != nil && now >= f.at {
		f.snap()
		f.snap = nil
	}
	return err
}

// floorNet drops the injections of the events scheduled at or before floor,
// which a restored fabric already holds.
type floorNet struct {
	noc.Network
	inject []sim.Tick
	floor  sim.Tick
}

func (n floorNet) Inject(m *noc.Message) {
	if n.inject[m.ID-1] > n.floor {
		n.Network.Inject(m)
	}
}

// TestSnapshotRestoreRoundTrip: capturing a snapshot mid-replay and resuming
// from it — on the same instance after it ran to completion, and on a fresh
// instance that never saw the prefix — reproduces the uninterrupted replay
// byte-for-byte on every fabric family and fault preset. The fabrics'
// noc.Checkpointer methods are kept for the benchmark's snapshot probe.
func TestSnapshotRestoreRoundTrip(t *testing.T) {
	const nodes = 16
	for _, preset := range []string{"off", "light", "heavy"} {
		for name, mk := range fabricFamilies(t, nodes, preset) {
			tr := randomTrace(7, 80, nodes)
			inject := make([]sim.Tick, len(tr.Events))
			for i := range tr.Events {
				inject[i] = tr.Events[i].RefInject
			}
			n := len(tr.Events)
			// replay drains net from its current state, injecting only the
			// events scheduled after floor; done counts the arrivals a
			// restored snapshot already holds.
			replay := func(net noc.Network, res *ReplayResult, floor sim.Tick, done int, snapAt sim.Tick, snap func()) error {
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
				dec := &streamDecoder{it: it, inject: inject, bm: blockMins(nil, inject), cur: new([minBlock]sim.Tick), pending: &pending}
				if err := drain(floorNet{net, inject, floor}, &snapshotFeed{streamDecoder: dec, at: snapAt, snap: snap}, &pool, &done, n); err != nil {
					return err
				}
				finalize(res, tr.RefMakespan, dec.maxRef)
				res.Cycles, res.NetStats = net.Now(), statsOf(net)
				return nil
			}

			// Uninterrupted replay, capturing one snapshot once half the
			// events are due.
			net := mk()
			ck := net.(noc.Checkpointer)
			full := ReplayResult{Inject: make([]sim.Tick, n), Arrive: make([]sim.Tick, n)}
			var snap noc.Snapshot
			half := slices.Sorted(slices.Values(inject))[n/2]
			if err := replay(net, &full, -1, 0, half, func() { snap = ck.Snapshot() }); err != nil {
				t.Fatalf("%s/%s full replay: %v", name, preset, err)
			}
			if snap == nil {
				t.Fatalf("%s/%s: no snapshot captured", name, preset)
			}

			resume := func(target noc.Network, label string) {
				t0 := snap.SnapshotAt()
				target.(noc.Checkpointer).Restore(snap)
				res := ReplayResult{Inject: make([]sim.Tick, n), Arrive: make([]sim.Tick, n)}
				done := 0
				for i := 0; i < n; i++ {
					if full.Arrive[i] <= t0 {
						res.Inject[i] = full.Inject[i]
						res.Arrive[i] = full.Arrive[i]
						done++
					}
				}
				if err := replay(target, &res, t0, done, sim.Never, nil); err != nil {
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
