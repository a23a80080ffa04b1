package enoc

import (
	"reflect"
	"testing"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// checkInvariants verifies, between ticks, the conservation laws of the
// credit protocol and that every piece of derived state — request rows and
// their bidding mask, VC wait sets, the wake ring, NI pending counts, the
// busy sets — agrees with the queues it summarises.
func checkInvariants(t testing.TB, n *Network) {
	t.Helper()
	depth := n.bufDepth
	// Every wake-ring entry is an occupied VC, filed once, in the slot of
	// the cycle its head becomes ready, and within the ring's horizon.
	filed := map[vcRef]bool{}
	for i, slot := range n.wake.slots {
		for _, v := range slot {
			b := &n.routers[v.node].in[v.bit>>4][v.bit&15]
			if b.n == 0 || filed[v] {
				t.Fatalf("cycle %d router %d in %s/%d: on the wake ring empty or twice", n.now, v.node, portNames[v.bit>>4], v.bit&15)
			}
			if ready := b.at(0).readyAt; ready&n.wake.mask != sim.Tick(i) || ready <= n.now || ready > n.now+n.linkCycles+RouterStages {
				t.Fatalf("cycle %d router %d in %s/%d: head ready at %d filed in wake slot %d of %d", n.now, v.node, portNames[v.bit>>4], v.bit&15, ready, i, len(n.wake.slots))
			}
			filed[v] = true
		}
	}
	// Every packet in flight is in exactly one place: the loopback queue,
	// an NI, or wherever its tail flit is.
	inflight := n.selfQ.Len()
	waiting := 0 // occupied VCs whose head is not ready: each waits on the wake ring once
	for _, r := range n.routers {
		var req [numPorts + 1]reqSet
		var vcWait [portLocal]reqSet
		for p := 0; p < numPorts; p++ {
			for v := range r.in[p] {
				b := &r.in[p][v]
				if b.n < 0 || b.n > depth || b.head < 0 || b.head >= len(b.q) {
					t.Fatalf("cycle %d router %d in %s/%d: ring head %d n %d, depth %d", n.now, r.id, portNames[p], v, b.head, b.n, depth)
				}
				if b.n > 0 && b.at(b.n-1).isTail {
					inflight++
				}
				// A VC whose head flit is ready — by the next cycle,
				// between ticks — is in exactly one of the request row of
				// its route and that port's VC wait set; otherwise in
				// neither. Only west-first bids unrouted.
				bit := p<<4 | v
				bids := r.req[b.outPort][bit>>6]&(1<<(bit&63)) != 0
				waits := b.outPort < portLocal && r.vcWait[b.outPort][bit>>6]&(1<<(bit&63)) != 0
				if b.n > 0 {
					switch ready := b.at(0).readyAt; {
					case bids && waits:
						t.Fatalf("cycle %d router %d in %s/%d: both bids for and waits at %s", n.now, r.id, portNames[p], v, portNames[b.outPort])
					case (bids || waits) && ready > n.now+1:
						t.Fatalf("cycle %d router %d in %s/%d: bids or waits with its head ready at %d", n.now, r.id, portNames[p], v, ready)
					case !bids && !waits && ready <= n.now:
						t.Fatalf("cycle %d router %d in %s/%d: head ready at %d neither bids nor waits", n.now, r.id, portNames[p], v, ready)
					case bids && b.outPort == portUnrouted && !n.routeAtBid:
						t.Fatalf("cycle %d router %d in %s/%d: bids unrouted under %s routing", n.now, r.id, portNames[p], v, n.cfg.Routing)
					case bids:
						req[b.outPort].add(bit)
					case waits:
						// A waiter is a ready head refused a VC, and no
						// VC it may take has been released since.
						f := b.at(0)
						if !f.isHead || b.granted || f.readyAt > n.now {
							t.Fatalf("cycle %d router %d in %s/%d: waits for a VC with head %v, granted %v, ready at %d", n.now, r.id, portNames[p], v, f.isHead, b.granted, f.readyAt)
						}
						lo, hi := r.vcChoices(f.pkt)
						for c := lo; c < hi; c++ {
							if !r.outBusy[b.outPort][c] {
								t.Fatalf("cycle %d router %d in %s/%d: waits at %s while its VC %d is free", n.now, r.id, portNames[p], v, portNames[b.outPort], c)
							}
						}
						vcWait[b.outPort].add(bit)
					default:
						if !filed[vcRef{int32(r.id), int32(bit)}] {
							t.Fatalf("cycle %d router %d in %s/%d: head ready at %d is not on the wake ring", n.now, r.id, portNames[p], v, b.at(0).readyAt)
						}
						waiting++
					}
				}
				// One owner per VC: every buffered flit is the owner's,
				// and a VC without an owner holds nothing and no decision.
				for i := 0; i < b.n; i++ {
					if f := b.at(i); f.pkt != b.owner || (f.isHead && i != 0) {
						t.Fatalf("cycle %d router %d in %s/%d: flit %d (head %v) of message %d in a VC owned by %v", n.now, r.id, portNames[p], v, i, f.isHead, f.pkt.msg.ID, b.owner)
					}
				}
				if b.owner == nil && (b.n != 0 || b.granted || b.outPort != portUnrouted) {
					t.Fatalf("cycle %d router %d in %s/%d: free VC holds state %+v", n.now, r.id, portNames[p], v, *b)
				}
				if b.n > 0 && b.outPort == portUnrouted && !b.at(0).isHead {
					t.Fatalf("cycle %d router %d in %s/%d: unrouted front flit is not a head", n.now, r.id, portNames[p], v)
				}
			}
			l := r.outLink[p]
			if l == nil {
				continue
			}
			// The wire is in the downstream buffer: a flit on it is
			// buffered there, not yet ready.
			for v := range r.outCredit[p] {
				down := &l.dst.in[l.dstPort][v]
				if got := r.outCredit[p][v] + down.n; got != depth {
					t.Fatalf("cycle %d router %d out %s/%d: credits %d + buffered %d = %d, want %d", n.now, r.id, portNames[p], v, r.outCredit[p][v], down.n, got, depth)
				}
				if down.owner != nil && !r.outBusy[p][v] {
					t.Fatalf("cycle %d router %d out %s/%d: in use by message %d but marked free", n.now, r.id, portNames[p], v, down.owner.msg.ID)
				}
			}
		}
		if req != r.req {
			t.Fatalf("cycle %d router %d: request rows %x, queues give %x", n.now, r.id, r.req, req)
		}
		var bidding uint
		for o := range req {
			if req[o] != (reqSet{}) {
				bidding |= 1 << o
			}
		}
		if bidding != r.bidding {
			t.Fatalf("cycle %d router %d: bidding mask %b, request rows give %b", n.now, r.id, r.bidding, bidding)
		}
		if vcWait != r.vcWait {
			t.Fatalf("cycle %d router %d: VC wait sets %x, queues give %x", n.now, r.id, r.vcWait, vcWait)
		}
		if got, bidding := n.bufBusy.next(r.id) == r.id, req != [numPorts + 1]reqSet{}; got != bidding {
			t.Fatalf("cycle %d router %d: in bufBusy %v, a VC bids %v", n.now, r.id, got, bidding)
		}
	}
	if waiting != n.wake.Len() {
		t.Fatalf("cycle %d: %d occupied VCs wait for their head, the wake ring holds %d", n.now, waiting, n.wake.Len())
	}
	for _, ni := range n.nis {
		pending := 0
		for c := range ni.classQ {
			pending += ni.classQ[c].len()
			if ni.sending[c].pkt != nil {
				pending++
			}
		}
		if pending != ni.pending {
			t.Fatalf("cycle %d NI %d: pending %d, queues hold %d", n.now, ni.node, ni.pending, pending)
		}
		if got := n.niBusy.next(ni.node) == ni.node; got != (pending > 0) {
			t.Fatalf("cycle %d NI %d: in niBusy %v with %d packets pending", n.now, ni.node, got, pending)
		}
		inflight += pending
	}
	if inflight != n.inflight {
		t.Fatalf("cycle %d: found %d packets in loopback, at NIs and by their tails, inflight says %d", n.now, inflight, n.inflight)
	}
}

// drainChecked is drain with checkInvariants after every tick.
func drainChecked(t testing.TB, n *Network, bound int) bool {
	t.Helper()
	checkInvariants(t, n)
	for i := 0; i < bound && n.NextWake() != noc.Never; i++ {
		n.Tick()
		checkInvariants(t, n)
	}
	return n.NextWake() == noc.Never
}

// mixedTraffic injects count seeded messages of one to five flits in all
// classes, self-messages included, and returns them in injection order.
func mixedTraffic(n *Network, seed uint64, count int) []*noc.Message {
	rng := sim.NewRNG(seed)
	msgs := make([]*noc.Message, count)
	for i := range msgs {
		msgs[i] = &noc.Message{
			ID: uint64(i + 1), Src: rng.Intn(n.nodes), Dst: rng.Intn(n.nodes),
			Bytes: 1 + rng.Intn(5*FlitBytes), Class: noc.Class(rng.Intn(int(noc.NumClasses))),
		}
		n.Inject(msgs[i])
	}
	return msgs
}

// arrivals lists when each message arrived.
func arrivals(msgs []*noc.Message) []sim.Tick {
	at := make([]sim.Tick, len(msgs))
	for i, m := range msgs {
		at[i] = m.Arrive
	}
	return at
}

func TestWestFirstHeavyLoadKeepsInvariants(t *testing.T) {
	cfg := meshCfg()
	cfg.Routing = "westfirst"
	n := New(16, cfg)
	n.SetDeliver(func(*noc.Message) {})
	mixedTraffic(n, 7, 600)
	if !drainChecked(t, n, 200_000) {
		t.Fatal("west-first burst did not drain")
	}
}

// TestRestoreRebuildsDerivedState snapshots a loaded fabric mid-flight and
// restores onto a fresh instance: nothing derived is carried in the snapshot,
// so the invariants hold on the target only if Restore rebuilt it, and both
// fabrics must finish identically.
func TestRestoreRebuildsDerivedState(t *testing.T) {
	for _, cfg := range []struct {
		name string
		mesh func() *Network
	}{
		{"mesh", func() *Network { return New(16, meshCfg()) }},
		{"torus", func() *Network { return New(16, torusCfg()) }},
	} {
		t.Run(cfg.name, func(t *testing.T) {
			src := cfg.mesh()
			src.SetDeliver(func(*noc.Message) {})
			mixedTraffic(src, 11, 400)
			for i := 0; i < 40; i++ {
				src.Tick()
			}
			snap := src.Snapshot()

			dst := cfg.mesh()
			dst.SetDeliver(func(*noc.Message) {})
			// Leave stale state behind for Restore to overwrite.
			mixedTraffic(dst, 12, 100)
			for i := 0; i < 9; i++ {
				dst.Tick()
			}
			dst.Restore(snap)
			checkInvariants(t, dst)
			if !drainChecked(t, dst, 200_000) || !drainChecked(t, src, 200_000) {
				t.Fatal("did not drain")
			}
			if src.now != dst.now || !reflect.DeepEqual(src.stats, dst.stats) || src.power != dst.power {
				t.Fatalf("restored fabric diverged: now %d vs %d\n%+v\n%+v", src.now, dst.now, src.stats, dst.stats)
			}
		})
	}
}

// TestResetWhileBusy resets a loaded fabric mid-flight: every packet still in
// a buffer, on a link or at an NI must return to the free list (they used to
// be dropped and the pool re-grown), and a replay on the reset fabric must
// match a fresh one exactly.
func TestResetWhileBusy(t *testing.T) {
	run := func(n *Network) ([]sim.Tick, noc.Stats, powerCounters) {
		msgs := mixedTraffic(n, 21, 500)
		if !drainChecked(t, n, 200_000) {
			t.Fatal("did not drain")
		}
		return arrivals(msgs), n.stats, n.power
	}
	fresh := New(16, meshCfg())
	fresh.SetDeliver(func(*noc.Message) {})
	wantAt, wantStats, wantPower := run(fresh)

	n := New(16, meshCfg())
	n.SetDeliver(func(*noc.Message) {})
	busy := mixedTraffic(n, 22, 500)
	for i := 0; i < 30; i++ {
		n.Tick()
	}
	if n.NextWake() == noc.Never {
		t.Fatal("fabric drained before the reset; the test needs it busy")
	}
	packets := 0 // every non-loopback message took one packet from a pool that started empty
	for _, m := range busy {
		if m.Src != m.Dst {
			packets++
		}
	}
	n.Reset()
	checkInvariants(t, n)
	if len(n.pktFree) != packets {
		t.Fatalf("free list holds %d packets after a busy Reset, want all %d", len(n.pktFree), packets)
	}
	seen := map[*packet]bool{}
	for _, p := range n.pktFree {
		if seen[p] {
			t.Fatal("packet freed twice")
		}
		seen[p] = true
	}
	gotAt, gotStats, gotPower := run(n)
	if !reflect.DeepEqual(gotAt, wantAt) || !reflect.DeepEqual(gotStats, wantStats) || gotPower != wantPower {
		t.Fatalf("replay after a busy Reset diverged from a fresh fabric:\n%+v\n%+v", gotStats, wantStats)
	}
}

// TestSteadyStateTickAllocatesNothing is the zero-allocation gate on the hot
// loop: on a fabric that has run the burst once, injecting and draining it
// again costs no allocation beyond what Reset itself makes (fresh Stats).
func TestSteadyStateTickAllocatesNothing(t *testing.T) {
	for _, routing := range []string{"xy", "westfirst"} {
		cfg := meshCfg()
		cfg.Routing = routing
		n := New(64, cfg)
		n.SetDeliver(func(*noc.Message) {})
		msgs := mixedTraffic(n, 31, 2000)
		drain(n, 1_000_000)
		round := func() {
			n.Reset()
			for _, m := range msgs {
				n.Inject(m)
			}
			if !drain(n, 1_000_000) {
				t.Fatal("did not drain")
			}
		}
		reset := testing.AllocsPerRun(5, n.Reset)
		if got := testing.AllocsPerRun(5, round); got != reset {
			t.Errorf("%s: a warmed burst allocates %.0f times per round, Reset alone %.0f", routing, got, reset)
		}
	}
}

func TestPktQueueReusesItsArray(t *testing.T) {
	var q pktQueue
	pkts := make([]*packet, 8)
	for i := range pkts {
		pkts[i] = &packet{nflits: i}
		q.push(pkts[i])
	}
	grown := cap(q.q)
	// A queue that never empties must not creep through memory.
	for i := 0; i < 1000; i++ {
		p := q.pop()
		if p != pkts[i%len(pkts)] {
			t.Fatalf("pop %d returned packet %d out of order", i, p.nflits)
		}
		q.push(p)
	}
	if q.len() != len(pkts) || cap(q.q) != grown {
		t.Fatalf("len %d cap %d after steady push/pop, want %d and %d", q.len(), cap(q.q), len(pkts), grown)
	}
}
