// Package fabrictest holds a fabric to the noc.Network contract. The contract
// belongs to the interface, not to each implementation's test file:
// internal/fabric runs all of it over every variant fabric.Build returns, and
// a fabric's own package runs the clauses its tests are named for.
package fabrictest

import (
	"reflect"
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/cpu"
	"onocsim/internal/fabric"
	"onocsim/internal/noc"
	"onocsim/internal/sim"
	"onocsim/internal/workload"
)

// Config is the 16-node chip running the quick stencil that the contract is
// checked on.
func Config() config.Config {
	cfg := config.Default()
	cfg.System.Cores = 16
	cfg.Workload.Scale = 4
	cfg.Workload.Iterations = 2
	cfg.MaxCycles = 5_000_000
	return cfg
}

// A source drives one run of traffic through net until it drains.
type source struct {
	name  string
	drive func(t *testing.T, cfg config.Config, net noc.Network)
}

// sources are an all-pairs burst (self-pairs included) at cycle 0, each
// message acknowledged from inside its delivery callback by a message from its
// destination to the node opposite it on the grid — never itself, and at a
// hop distance unrelated to the delivered message's, so on the hybrid an
// acknowledgement often changes sub-fabric; a seeded schedule of small bursts
// separated by idle gaps of up to several token rotations — the regime
// NextWake/SkipTo exist for; and the execution-driven stencil, real coherence
// traffic whose replies follow deliveries.
var sources = []source{
	{"burst", func(t *testing.T, _ config.Config, net noc.Network) {
		burst := allPairs(net.Nodes())
		net.SetDeliver(func(m *noc.Message) {
			if m.ID <= uint64(len(burst)) {
				net.Inject(&noc.Message{ID: m.ID + uint64(len(burst)), Src: m.Dst, Dst: net.Nodes() - 1 - m.Dst, Bytes: 8, Class: noc.ClassResponse})
			}
		})
		driveSchedule(t, net, burst)
	}},
	{"gapped", func(t *testing.T, _ config.Config, net noc.Network) {
		rng := sim.NewStream(7, "fabric-contract")
		nodes := net.Nodes()
		var sched []noc.Message
		at := sim.Tick(0)
		for burst := 0; burst < 40; burst++ {
			at += sim.Tick(1 + rng.Intn(3000))
			for k := 0; k < 1+rng.Intn(6); k++ {
				src := rng.Intn(nodes)
				sched = append(sched, noc.Message{Inject: at + sim.Tick(rng.Intn(4)), Src: src, Dst: (src + 1 + rng.Intn(nodes-1)) % nodes,
					Bytes: 8 << rng.Intn(5), Class: noc.Class(rng.Intn(int(noc.NumClasses)))})
			}
		}
		driveSchedule(t, net, sched)
	}},
	{"stencil", func(t *testing.T, cfg config.Config, net noc.Network) {
		progs, err := workload.Generate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sys, err := cpu.NewSystem(cfg, progs, net, nil)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := sys.Run(cfg.MaxCycles); err != nil {
			t.Fatal(err)
		}
	}},
}

// allPairs is one message from every node to every node, itself included.
func allPairs(nodes int) []noc.Message {
	var sched []noc.Message
	for s := 0; s < nodes; s++ {
		for d := 0; d < nodes; d++ {
			sched = append(sched, noc.Message{Src: s, Dst: d, Bytes: 8 << ((s + d) % 5), Class: noc.Class((s + d) % int(noc.NumClasses))})
		}
	}
	return sched
}

// driveSchedule injects each message of sched at its Inject cycle, with ID
// index+1, and runs net dry, skipping whatever NextWake says it may.
func driveSchedule(t *testing.T, net noc.Network, sched []noc.Message) {
	for i, ticks := 0, 0; i < len(sched) || net.NextWake() != noc.Never; ticks++ {
		if ticks > 1_000_000 {
			t.Fatalf("not drained after %d ticks (%d of %d injected)", ticks, i, len(sched))
		}
		for ; i < len(sched) && sched[i].Inject <= net.Now(); i++ {
			m := sched[i]
			m.ID = uint64(i + 1)
			net.Inject(&m)
		}
		wake := net.NextWake()
		if i < len(sched) && sched[i].Inject < wake {
			wake = sched[i].Inject
		}
		if wake == noc.Never {
			t.Fatalf("NextWake is Never at cycle %d with traffic in flight", net.Now())
		}
		if wake > net.Now()+1 {
			net.SkipTo(wake - 1)
		}
		net.Tick()
	}
}

// probe is the decorator every run goes through. It logs each message as
// injected (stamped with the cycle it was injected at) and as delivered. With
// every set the fabric is ticked through every cycle: the probe reports
// Now()+1 as a busy fabric's NextWake, so whatever owns the fabric ticks it
// while traffic is in flight, and a SkipTo over a drained fabric's idle
// stretch ticks each cycle of it. After every Tick, and every Inject from
// outside one, the fabric's NextWake must lie in the future.
type probe struct {
	noc.Network
	t       *testing.T
	every   bool
	sent    map[uint64]noc.Message
	log     []noc.Message
	fn      noc.DeliverFunc
	ticking bool
}

func newProbe(t *testing.T, net noc.Network, every bool) *probe {
	p := &probe{Network: net, t: t, every: every, sent: map[uint64]noc.Message{}}
	net.SetDeliver(func(m *noc.Message) {
		c := *m
		c.Payload = nil
		p.log = append(p.log, c)
		if p.fn != nil {
			p.fn(m)
		}
	})
	return p
}

func (p *probe) SetDeliver(fn noc.DeliverFunc) { p.fn = fn }

func (p *probe) Inject(m *noc.Message) {
	c := *m
	c.Inject, c.Payload = p.Now(), nil
	p.sent[m.ID] = c
	p.Network.Inject(m)
	if !p.ticking {
		p.wakeAhead("an Inject")
	}
}

func (p *probe) Tick() {
	p.ticking = true
	p.Network.Tick()
	p.ticking = false
	p.wakeAhead("a Tick")
}

// wakeAhead fails the run if the fabric names a next wake that is not in the
// future: whatever skips to NextWake would stall or go back.
func (p *probe) wakeAhead(after string) {
	if w := p.Network.NextWake(); w <= p.Now() {
		p.t.Fatalf("after %s at cycle %d, NextWake is %d", after, p.Now(), w)
	}
}

func (p *probe) NextWake() sim.Tick {
	if w := p.Network.NextWake(); !p.every || w == noc.Never {
		return w
	}
	return p.Now() + 1
}

func (p *probe) SkipTo(t sim.Tick) {
	if !p.every {
		p.Network.SkipTo(t)
		return
	}
	for p.Now() < t {
		p.Tick()
	}
}

// check holds a finished run to the per-run clauses: every injected message
// delivered exactly once, unaltered, strictly after it was injected; the
// fabric's counters equal to the log's; and the drained fabric idle for good.
func (p *probe) check(t *testing.T) {
	t.Helper()
	injected, bytes := uint64(len(p.sent)), uint64(0)
	for _, m := range p.log {
		in, ok := p.sent[m.ID]
		arrive := m.Arrive
		m.Arrive = 0
		switch {
		case !ok:
			t.Fatalf("message %d delivered but not (or no longer) in flight", m.ID)
		case m != in:
			t.Fatalf("message delivered as %+v, injected as %+v", m, in)
		case arrive <= m.Inject:
			t.Fatalf("message %d injected at %d arrived at %d", m.ID, m.Inject, arrive)
		}
		delete(p.sent, m.ID)
		bytes += uint64(m.Bytes)
	}
	if len(p.sent) > 0 {
		t.Fatalf("%d of %d injected messages never delivered", len(p.sent), injected)
	}
	if st := p.Network.Stats(); st.Injected != injected || st.Delivered != uint64(len(p.log)) || st.BytesDelivered != bytes {
		t.Fatalf("stats count %d injected, %d delivered, %d bytes; the log %d, %d, %d",
			st.Injected, st.Delivered, st.BytesDelivered, injected, len(p.log), bytes)
	}
	if w := p.Network.NextWake(); w != noc.Never {
		t.Fatalf("drained fabric: NextWake %d", w)
	}
}

// outcome is everything one run determines.
type outcome struct {
	log   []noc.Message
	stats noc.Stats
	end   sim.Tick
}

// A Rerun is a second way to run the same traffic; the contract wants it to
// reproduce a run on a fresh build exactly (delivery log, every statistic,
// end cycle).
type Rerun struct {
	name         string
	every, reset bool
}

var (
	SecondBuild    = Rerun{name: "second build"}
	TickEveryCycle = Rerun{name: "ticking every cycle", every: true}
	ResetWhileBusy = Rerun{name: "rerun after Reset while busy", reset: true}
)

// run builds a fresh fabric, drives src through a probe and checks the run.
// With r.reset, the fabric first takes an all-pairs burst and is Reset
// mid-flight.
func run(t *testing.T, cfg config.Config, kind config.NetworkKind, src source, r Rerun) outcome {
	t.Helper()
	net, err := fabric.Build(cfg, kind)
	if err != nil {
		t.Fatal(err)
	}
	p := newProbe(t, net, r.every)
	if r.reset {
		for i, m := range allPairs(net.Nodes()) {
			m.ID = uint64(i + 1)
			p.Inject(&m)
		}
		for i := 0; i < 5; i++ {
			net.Tick()
		}
		rs, ok := net.(noc.Resettable)
		if !ok || net.NextWake() == noc.Never {
			t.Fatalf("%T: Resettable %v, NextWake %d after 5 cycles of a burst", net, ok, net.NextWake())
		}
		rs.Reset()
		p.sent, p.log = map[uint64]noc.Message{}, nil
	}
	src.drive(t, cfg, p)
	p.check(t)
	return outcome{p.log, *net.Stats(), net.Now()}
}

// same fails the test when got is not want, naming the first delivery that
// differs.
func same(t *testing.T, what string, got, want outcome) {
	t.Helper()
	if reflect.DeepEqual(got, want) {
		return
	}
	for i := 0; i < len(got.log) && i < len(want.log); i++ {
		if got.log[i] != want.log[i] {
			t.Fatalf("%s: delivery %d is %+v, want %+v", what, i, got.log[i], want.log[i])
		}
	}
	t.Fatalf("%s: %d deliveries ending at cycle %d, want %d ending at %d; stats\n got %+v\nwant %+v",
		what, len(got.log), got.end, len(want.log), want.end, got.stats, want.stats)
}

// Contract runs every source, one subtest each, on a fresh fabric of kind
// built for cfg, holds each run to the per-run clauses and to each of reruns
// reproducing it, and holds the fault counters to cfg: zero with faults off,
// counting events with them on, so a faulted run exercised what it claims to.
func Contract(t *testing.T, cfg config.Config, kind config.NetworkKind, reruns ...Rerun) {
	t.Helper()
	var faults noc.FaultCounts
	for _, src := range sources {
		t.Run(src.name, func(t *testing.T) {
			want := run(t, cfg, kind, src, Rerun{})
			faults.Add(want.stats.Faults)
			for _, r := range reruns {
				same(t, r.name, run(t, cfg, kind, src, r), want)
			}
		})
	}
	if on := cfg.Faults != (config.Faults{}); on == (faults == noc.FaultCounts{}) {
		t.Errorf("faults on: %v, counted: %+v", on, faults)
	}
}

// Endpoints holds net to the first clause of Inject: endpoints outside
// [0, Nodes) panic.
func Endpoints(t *testing.T, net noc.Network) {
	t.Helper()
	for _, bad := range []noc.Message{{Src: -1, Dst: 0}, {Src: 0, Dst: net.Nodes()}, {Src: net.Nodes(), Dst: net.Nodes()}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Inject(%d->%d) on %d nodes did not panic", bad.Src, bad.Dst, net.Nodes())
				}
			}()
			bad.Bytes = 8
			net.Inject(&bad)
		}()
	}
}

// SelfMessage holds net, fresh and with at least six nodes, to the second: a
// self-message is delivered exactly once, on the next Tick, without keeping
// the fabric busy — also one injected from inside the delivery callback of
// another (the mesh and the hybrid used to drop that one).
func SelfMessage(t *testing.T, net noc.Network) {
	t.Helper()
	var got []noc.Message
	net.SetDeliver(func(m *noc.Message) {
		got = append(got, *m)
		if m.ID == 7 {
			net.Inject(&noc.Message{ID: 8, Src: m.Dst, Dst: m.Dst, Bytes: 8})
		}
	})
	net.Tick()
	net.Tick()
	at := net.Now()
	net.Inject(&noc.Message{ID: 7, Src: 5, Dst: 5, Bytes: 64})
	if net.NextWake() != at+1 {
		t.Fatalf("after a self-inject at %d: NextWake %d", at, net.NextWake())
	}
	for i := 0; i < 50; i++ {
		net.Tick()
	}
	if len(got) != 2 || got[0].ID != 7 || got[0].Inject != at || got[0].Arrive != at+1 ||
		got[1].ID != 8 || got[1].Inject != at+1 || got[1].Arrive != at+2 {
		t.Fatalf("self-message injected at %d and its follow-up: deliveries %+v, want one at %d and one at %d", at, got, at+1, at+2)
	}
	if net.NextWake() != noc.Never || net.Stats().Delivered != 2 {
		t.Fatalf("after delivery: NextWake %d, delivered %d", net.NextWake(), net.Stats().Delivered)
	}
}
