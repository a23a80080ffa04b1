package noc

import (
	"testing"
	"testing/quick"

	"onocsim/internal/sim"
)

func TestClassStrings(t *testing.T) {
	cases := map[Class]string{
		ClassRequest:   "request",
		ClassResponse:  "response",
		ClassWriteback: "writeback",
		NumClasses:     "invalid",
	}
	for c, want := range cases {
		if c.String() != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestMessageLatency(t *testing.T) {
	m := &Message{Inject: 10, Arrive: 35}
	if m.Latency() != 25 {
		t.Fatalf("latency = %d", m.Latency())
	}
}

func TestStatsCountDelivery(t *testing.T) {
	s := new(Stats)
	s.CountDelivery(&Message{Bytes: 64, Inject: 0, Arrive: 8, Class: ClassRequest})
	s.CountDelivery(&Message{Bytes: 8, Inject: 4, Arrive: 20, Class: ClassResponse})
	if *s != (Stats{Delivered: 2, BytesDelivered: 72}) {
		t.Fatalf("stats = %+v, want 2 delivered, 72 bytes", *s)
	}
}

// TestStatsMergeIsOrderFree is why a merged block (the hybrid's, its mesh's
// and its crossbar's) is exact however the traffic splits: a random event log, split into K disjoint subsequences (some empty) that are each
// shuffled and counted into a block of their own, merges in any order into
// exactly the block of the whole log counted in sequence.
func TestStatsMergeIsOrderFree(t *testing.T) {
	type event struct {
		m       Message
		drifted bool
	}
	count := func(s *Stats, e *event) {
		s.Injected++
		if e.drifted {
			s.Faults.DriftedSends++
		}
		s.CountDelivery(&e.m)
	}
	shuffle := func(rng *sim.RNG, n int, swap func(i, j int)) {
		for i := n - 1; i > 0; i-- {
			swap(i, rng.Intn(i+1))
		}
	}
	check := func(seed uint64, kRaw uint8) bool {
		rng := sim.NewRNG(seed)
		log := make([]event, rng.Intn(300))
		for i := range log {
			log[i] = event{m: Message{ID: uint64(i + 1), Bytes: 8 << rng.Intn(4)}, drifted: rng.Bernoulli(0.1)}
		}
		var want Stats
		for i := range log {
			count(&want, &log[i])
		}

		k := 1 + int(kRaw)%8
		parts := make([][]*event, k)
		for i := range log { // with k > 1 the last part stays empty
			s := rng.Intn(max(k-1, 1))
			parts[s] = append(parts[s], &log[i])
		}
		blocks := make([]Stats, k)
		for s, part := range parts {
			shuffle(rng, len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
			for _, e := range part {
				count(&blocks[s], e)
			}
		}
		shuffle(rng, k, func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
		got := blocks[0]
		for _, b := range blocks[1:] {
			got.Merge(b)
		}
		return got == want
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestPowerReport(t *testing.T) {
	p := PowerReport{StaticMW: 100, DynamicMW: 50}
	if p.TotalMW() != 150 {
		t.Fatalf("total = %g", p.TotalMW())
	}
}

func TestIdealFixedLatency(t *testing.T) {
	n := NewIdeal(4, 10, 0)
	var arrived []*Message
	n.SetDeliver(func(m *Message) { arrived = append(arrived, m) })
	n.Inject(&Message{ID: 1, Src: 0, Dst: 3, Bytes: 64})
	for i := 0; i < 20; i++ {
		n.Tick()
	}
	if len(arrived) != 1 {
		t.Fatalf("delivered %d", len(arrived))
	}
	if got := arrived[0].Latency(); got != 10 {
		t.Fatalf("latency = %d, want exactly 10", got)
	}
	if n.NextWake() != Never {
		t.Fatal("still busy after delivery")
	}
}

func TestIdealBandwidthCapSerializes(t *testing.T) {
	// 8 bytes/cycle cap: two 16-byte messages from one node serialize by
	// 2 cycles each.
	n := NewIdeal(2, 5, 8)
	var lats []sim.Tick
	n.SetDeliver(func(m *Message) { lats = append(lats, m.Latency()) })
	n.Inject(&Message{ID: 1, Src: 0, Dst: 1, Bytes: 16})
	n.Inject(&Message{ID: 2, Src: 0, Dst: 1, Bytes: 16})
	for i := 0; i < 30; i++ {
		n.Tick()
	}
	if len(lats) != 2 {
		t.Fatalf("delivered %d", len(lats))
	}
	// First: 1 extra serialization cycle (2-cycle ser, starts at 0) →
	// 5+1=6; second starts after the first's slot → 5+3=8.
	if lats[0] != 6 || lats[1] != 8 {
		t.Fatalf("latencies = %v, want [6 8]", lats)
	}
}

func TestIdealZeroLoadLatency(t *testing.T) {
	n := NewIdeal(4, 10, 8)
	if n.ZeroLoadLatency(0, 0, 64) != 1 {
		t.Fatal("self ZLL should be 1")
	}
	// 16 bytes at 8 B/cyc → +1 serialization beyond the first cycle.
	if got := n.ZeroLoadLatency(0, 1, 16); got != 11 {
		t.Fatalf("ZLL = %d, want 11", got)
	}
	uncapped := NewIdeal(4, 10, 0)
	if got := uncapped.ZeroLoadLatency(0, 1, 1<<20); got != 10 {
		t.Fatalf("uncapped ZLL = %d, want 10", got)
	}
}

func TestIdealConstructorPanics(t *testing.T) {
	for _, f := range []func(){
		func() { NewIdeal(0, 5, 0) },
		func() { NewIdeal(4, 0, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid constructor args accepted")
				}
			}()
			f()
		}()
	}
}

func TestIdealQueueMatchesGeoD1Theory(t *testing.T) {
	// Cross-validation against queueing theory: the capped injection port
	// is a discrete-time Geo/D/1 queue (Bernoulli arrivals, deterministic
	// service). Its mean queueing delay is Wq = s(s−1)p / (2(1−ρ)) with
	// service s and utilization ρ = p·s. The simulated wait, a delivered
	// message's latency less the fixed flight latency, must track the
	// formula — a wrong credit/serialization model shows up here long
	// before it corrupts an experiment.
	const (
		svc   = 4    // 32-byte packets at 8 B/cyc
		p     = 0.15 // arrivals per cycle
		pkts  = 60000
		nodes = 2
	)
	const latency = 5
	n := NewIdeal(nodes, latency, 8)
	var delivered, latSum int64
	n.SetDeliver(func(m *Message) { delivered, latSum = delivered+1, latSum+int64(m.Latency()) })
	rng := sim.NewRNG(99)
	id := uint64(0)
	sent := 0
	for sent < pkts {
		n.Tick()
		if rng.Bernoulli(p) {
			id++
			n.Inject(&Message{ID: id, Src: 0, Dst: 1, Bytes: 32})
			sent++
		}
	}
	for n.NextWake() != Never {
		n.Tick()
	}
	rho := p * svc
	// Theory gives the pure queueing wait; the simulated wait additionally
	// contains the deterministic serialization tail of s−1 cycles (the
	// message occupies the port until its last byte).
	want := float64(svc*(svc-1))*p/(2*(1-rho)) + float64(svc-1)
	if delivered != pkts {
		t.Fatalf("delivered %d of %d", delivered, pkts)
	}
	got := float64(latSum)/float64(delivered) - latency
	if got < want*0.9 || got > want*1.1 {
		t.Fatalf("Geo/D/1 mean wait: simulated %.3f, theory %.3f (ρ=%.2f)", got, want, rho)
	}
}

func TestIdealBurstQueues(t *testing.T) {
	const latency = 5
	n := NewIdeal(2, latency, 4) // 4 B/cyc
	var latSum sim.Tick
	n.SetDeliver(func(m *Message) { latSum += m.Latency() })
	// Burst of 4 × 8-byte messages: each occupies 2 cycles of the port.
	for i := 0; i < 4; i++ {
		n.Inject(&Message{ID: uint64(i + 1), Src: 0, Dst: 1, Bytes: 8})
	}
	for i := 0; i < 30; i++ {
		n.Tick()
	}
	if latSum <= 4*latency {
		t.Fatalf("bursty injection should show queueing: latencies sum to %d", latSum)
	}
	if n.Stats().Delivered != 4 {
		t.Fatalf("delivered = %d", n.Stats().Delivered)
	}
}
