package noc

import (
	"testing"

	"onocsim/internal/sim"
)

// drainQueue pops q dry, checking NextAt against each entry's due cycle.
func drainQueue(t *testing.T, q *DeliveryQueue, due map[uint64]sim.Tick) []*Message {
	t.Helper()
	var out []*Message
	for q.Len() > 0 {
		at := q.NextAt()
		m := q.Pop()
		if due[m.ID] != at {
			t.Fatalf("message %d popped at NextAt %d, pushed for %d", m.ID, at, due[m.ID])
		}
		out = append(out, m)
	}
	if q.NextAt() != Never {
		t.Fatalf("empty queue: NextAt %d, want Never", q.NextAt())
	}
	return out
}

func TestDeliveryQueue(t *testing.T) {
	q := NewDeliveryQueue(64)
	if q.NextAt() != Never || q.Len() != 0 {
		t.Fatalf("zero queue: NextAt %d Len %d", q.NextAt(), q.Len())
	}
	// Due cycles drawn from a handful of values, so most pops are same-cycle
	// ties that only the push order can break.
	rng := sim.NewRNG(5)
	due := map[uint64]sim.Tick{}
	// A push is never for a cycle before the last one popped.
	push := func(id uint64, from sim.Tick) {
		due[id] = from + sim.Tick(rng.Intn(6))
		q.Push(due[id], &Message{ID: id, Bytes: int(id)})
	}
	for id := uint64(1); id <= 200; id++ {
		push(id, 10)
	}
	for i := 0; i < 50; i++ { // a used queue, not a freshly filled one
		q.Pop()
	}
	snap := q.Clone()
	for id := uint64(201); id <= 230; id++ { // after the capture: not in snap
		push(id, 12)
	}

	want := drainQueue(t, &q, due)
	for i := 1; i < len(want); i++ {
		a, b := want[i-1], want[i]
		if due[a.ID] > due[b.ID] || (due[a.ID] == due[b.ID] && a.ID > b.ID) {
			t.Fatalf("pop %d: message %d (due %d) before %d (due %d)", i, a.ID, due[a.ID], b.ID, due[b.ID])
		}
	}

	// Restore twice from one snapshot, onto a dirty queue and a fresh one:
	// same pop order and contents as the original minus the late pushes, no
	// *Message shared with the snapshot, the original or each other.
	seen := map[*Message]bool{}
	for _, m := range want {
		seen[m] = true
	}
	var fresh DeliveryQueue
	q.Push(30, &Message{ID: 999})
	for _, r := range []*DeliveryQueue{&q, &fresh} {
		r.Restore(&snap)
		r.Push(15, &Message{ID: 1000}) // ties with restored entries: must pop after them
		due[1000] = 15
		got := drainQueue(t, r, due)
		i := 0
		for _, w := range want {
			if w.ID > 200 {
				continue
			}
			g := got[i]
			i++
			if *g != *w {
				t.Fatalf("restored pop %d: %+v, original %+v", i, *g, *w)
			}
			if seen[g] {
				t.Fatalf("restored message %d is shared", g.ID)
			}
			seen[g] = true
		}
		if i != len(got)-1 || got[i].ID != 1000 {
			t.Fatalf("restored queue popped %d messages, want %d then the new one last", len(got), i+1)
		}
	}
	if snap.Len() != 150 {
		t.Fatalf("snapshot changed by restores: Len %d", snap.Len())
	}

	// Reset drops every message reference (sim's calendar test looks inside).
	for id := uint64(1); id <= 40; id++ {
		push(id, 20)
	}
	q.Reset()
	if q.Len() != 0 || q.NextAt() != Never {
		t.Fatalf("reset queue: Len %d NextAt %d", q.Len(), q.NextAt())
	}
	q.Push(7, &Message{ID: 1})
	q.Push(7, &Message{ID: 2})
	if first := q.Pop(); first.ID != 1 {
		t.Fatalf("after Reset same-cycle ties pop message %d first", first.ID)
	}
}
