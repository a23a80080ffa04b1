package noc

import (
	"encoding/json"
	"reflect"
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

func TestStatsRecordDelivery(t *testing.T) {
	s := NewStats()
	s.RecordDelivery(&Message{Bytes: 64, Inject: 0, Arrive: 8, Class: ClassRequest})
	s.RecordDelivery(&Message{Bytes: 8, Inject: 4, Arrive: 20, Class: ClassResponse})
	if s.Delivered != 2 {
		t.Fatalf("delivered = %d", s.Delivered)
	}
	if s.BytesDelivered != 72 {
		t.Fatalf("bytes = %d", s.BytesDelivered)
	}
	if s.MeanLatency() != 12 {
		t.Fatalf("mean latency = %g, want 12", s.MeanLatency())
	}
	if s.PerClass[ClassRequest].Mean() != 8 || s.PerClass[ClassResponse].Mean() != 16 {
		t.Fatalf("per-class means: %g/%g",
			s.PerClass[ClassRequest].Mean(), s.PerClass[ClassResponse].Mean())
	}
	if s.PerClass[ClassWriteback].Count() != 0 {
		t.Fatal("untouched class has samples")
	}
}

// TestStatsMergeIsOrderFree is why shards cannot change a result: a random
// delivery log, split into K disjoint subsequences (some empty) that are each
// shuffled and recorded into a block of their own, merges in any order into
// exactly the block of the whole log recorded in sequence — and that block
// survives a JSON round trip.
func TestStatsMergeIsOrderFree(t *testing.T) {
	type delivery struct {
		m          Message
		wait, hops int64
		drifted    bool
	}
	record := func(s *Stats, d *delivery) {
		s.Injected++
		s.QueueDelay.Add(d.wait)
		s.HopCount.Add(d.hops)
		if d.drifted {
			s.Faults.DriftedSends++
		}
		m := d.m
		s.RecordDelivery(&m)
	}
	shuffle := func(rng *sim.RNG, n int, swap func(i, j int)) {
		for i := n - 1; i > 0; i-- {
			swap(i, rng.Intn(i+1))
		}
	}
	check := func(seed uint64, kRaw uint8) bool {
		rng := sim.NewRNG(seed)
		log := make([]delivery, rng.Intn(300))
		for i := range log {
			d := &log[i]
			d.m = Message{ID: uint64(i + 1), Src: rng.Intn(8), Dst: rng.Intn(8), Bytes: 8 << rng.Intn(4),
				Class: Class(rng.Intn(int(NumClasses))), Inject: sim.Tick(rng.Intn(1000))}
			d.drifted = rng.Bernoulli(0.1)
			if d.m.Src == d.m.Dst { // a self-message: next cycle, no wait, no hops
				d.m.Arrive = d.m.Inject + 1
				continue
			}
			if rng.Bernoulli(0.5) {
				d.wait = int64(rng.Intn(50))
			}
			d.hops = int64(1 + rng.Intn(14))
			d.m.Arrive = d.m.Inject + sim.Tick(d.wait+d.hops) + sim.Tick(rng.Intn(1<<rng.Intn(16)))
		}
		want := NewStats()
		for i := range log {
			record(want, &log[i])
		}

		k := 1 + int(kRaw)%8
		parts := make([][]*delivery, k)
		for i := range log { // with k > 1 the last part stays empty
			s := rng.Intn(max(k-1, 1))
			parts[s] = append(parts[s], &log[i])
		}
		blocks := make([]*Stats, k)
		for s, part := range parts {
			shuffle(rng, len(part), func(i, j int) { part[i], part[j] = part[j], part[i] })
			blocks[s] = NewStats()
			for _, d := range part {
				record(blocks[s], d)
			}
		}
		shuffle(rng, k, func(i, j int) { blocks[i], blocks[j] = blocks[j], blocks[i] })
		got := blocks[0]
		for _, b := range blocks[1:] {
			got.Merge(b)
		}

		data, err := json.Marshal(got)
		var back Stats
		if err != nil || json.Unmarshal(data, &back) != nil {
			t.Logf("JSON round trip: %v", err)
			return false
		}
		return reflect.DeepEqual(got, want) && reflect.DeepEqual(&back, want)
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
	if n.Busy() {
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
	// service s and utilization ρ = p·s. The simulator's QueueDelay stat
	// must track the formula — a wrong credit/serialization model shows
	// up here long before it corrupts an experiment.
	const (
		svc   = 4    // 32-byte packets at 8 B/cyc
		p     = 0.15 // arrivals per cycle
		pkts  = 60000
		nodes = 2
	)
	n := NewIdeal(nodes, 5, 8)
	n.SetDeliver(func(m *Message) {})
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
	for n.Busy() {
		n.Tick()
	}
	rho := p * svc
	// Theory gives the pure queueing wait; the simulator's QueueDelay
	// stat additionally contains the deterministic serialization tail of
	// s−1 cycles (the message occupies the port until its last byte).
	want := float64(svc*(svc-1))*p/(2*(1-rho)) + float64(svc-1)
	got := n.Stats().QueueDelay.Mean()
	if got < want*0.9 || got > want*1.1 {
		t.Fatalf("Geo/D/1 mean wait: simulated %.3f, theory %.3f (ρ=%.2f)", got, want, rho)
	}
}

func TestIdealQueueDelayStat(t *testing.T) {
	n := NewIdeal(2, 5, 4) // 4 B/cyc
	n.SetDeliver(func(m *Message) {})
	// Burst of 4 × 8-byte messages: each occupies 2 cycles of the port.
	for i := 0; i < 4; i++ {
		n.Inject(&Message{ID: uint64(i + 1), Src: 0, Dst: 1, Bytes: 8})
	}
	for i := 0; i < 30; i++ {
		n.Tick()
	}
	if n.Stats().QueueDelay.Mean() <= 0 {
		t.Fatal("bursty injection should show queue delay")
	}
	if n.Stats().Delivered != 4 {
		t.Fatalf("delivered = %d", n.Stats().Delivered)
	}
}
