package sim

import (
	"sort"
	"testing"
)

// calRef is the calendar's specification: a list kept sorted by (at, push
// order), popped from the front.
type calRef struct {
	at  Tick
	seq int
	v   *int
}

func refPush(ref []calRef, e calRef) []calRef {
	i := sort.Search(len(ref), func(i int) bool {
		return ref[i].at > e.at || (ref[i].at == e.at && ref[i].seq > e.seq)
	})
	ref = append(ref, calRef{})
	copy(ref[i+1:], ref[i:])
	ref[i] = e
	return ref
}

// drainAgainst pops c dry, holding every pop, NextAt and Len to ref.
func drainAgainst(t *testing.T, what string, c *Calendar[*int], ref []calRef) []*int {
	t.Helper()
	var out []*int
	for i, want := range ref {
		if c.Len() != len(ref)-i || c.NextAt() != want.at {
			t.Fatalf("%s, pop %d: Len %d NextAt %d, want %d and %d", what, i, c.Len(), c.NextAt(), len(ref)-i, want.at)
		}
		v := c.Pop()
		if *v != *want.v {
			t.Fatalf("%s, pop %d: value %d, want %d (cycle %d, push %d)", what, i, *v, *want.v, want.at, want.seq)
		}
		out = append(out, v)
	}
	if c.Len() != 0 || c.NextAt() != Never {
		t.Fatalf("%s: drained calendar has Len %d NextAt %d", what, c.Len(), c.NextAt())
	}
	return out
}

// noReferences fails when any slot of c's storage, live or spare, still holds
// a value.
func noReferences(t *testing.T, c *Calendar[*int]) {
	t.Helper()
	for i, e := range c.slab[:cap(c.slab)] {
		if e.v != nil {
			t.Fatalf("slab entry %d still references value %d", i, *e.v)
		}
	}
	for i, f := range c.far[:cap(c.far)] {
		if f.v != nil {
			t.Fatalf("overflow entry %d still references value %d", i, *f.v)
		}
	}
}

// TestCalendarMatchesSortedReference holds the calendar to a sorted (cycle,
// push order) list under random interleavings of pushes and pops that keep
// its one rule (no push before the last cycle popped). Pushes land on the
// last popped cycle itself, within the ring, exactly on its edges and up to
// three rings beyond it, clustered so that same-cycle ties are common; pops
// come in runs long enough to carry the ring over overflow entries. Mid-stream
// snapshots (Restore into a zero calendar, values duplicated) are restored
// twice, onto the dirty original and onto a fresh calendar, and must replay
// the snapshot's queue without sharing a value; Reset must drop every value.
func TestCalendarMatchesSortedReference(t *testing.T) {
	id := 0
	val := func() *int { id++; v := id; return &v }
	dup := func(p *int) *int { v := *p; return &v }
	for seed := uint64(1); seed <= 60; seed++ {
		rng := NewRNG(seed)
		span := 64 << rng.Intn(4)
		c := NewCalendar[*int](span)
		var ref []calRef
		var snap Calendar[*int]
		var snapRef []calRef
		seq, lo, overflowed := 0, Tick(0), false
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(20); {
			case op < 9:
				var off Tick
				switch rng.Intn(6) {
				case 0:
					off = Tick(rng.Intn(3))
				case 1:
					off = Tick(span - 1 + rng.Intn(3)) // the ring's last cycle and the first two past it
				case 2:
					off = Tick(span + rng.Intn(3*span))
				default:
					off = Tick(rng.Intn(span/8) * 8) // few distinct cycles: ties
				}
				seq++
				e := calRef{at: lo + off, seq: seq, v: val()}
				c.Push(e.at, e.v)
				ref = refPush(ref, e)
				overflowed = overflowed || len(c.far) > 0
			case op < 18:
				for k := 1 + rng.Intn(8); k > 0 && len(ref) > 0; k-- {
					if c.NextAt() != ref[0].at || c.Len() != len(ref) {
						t.Fatalf("seed %d step %d: NextAt %d Len %d, want %d and %d", seed, step, c.NextAt(), c.Len(), ref[0].at, len(ref))
					}
					if v := c.Pop(); *v != *ref[0].v {
						t.Fatalf("seed %d step %d: popped %d, want %d (cycle %d)", seed, step, *v, *ref[0].v, ref[0].at)
					}
					lo, ref = ref[0].at, ref[1:]
				}
			case op == 18:
				snap.Restore(&c, dup)
				snapRef = append(snapRef[:0], ref...)
			default:
				if snapRef == nil {
					continue
				}
				seen := map[*int]bool{}
				for _, e := range ref {
					seen[e.v] = true
				}
				fresh := Calendar[*int]{}
				for _, r := range []*Calendar[*int]{&fresh, &c} {
					r.Restore(&snap, dup)
					for _, v := range drainAgainst(t, "restored", r, snapRef) {
						if seen[v] {
							t.Fatalf("seed %d step %d: a restored value is shared", seed, step)
						}
						seen[v] = true
					}
				}
				// Carry on from the snapshot, restored a third time.
				c.Restore(&snap, dup)
				ref = append(ref[:0], snapRef...)
				lo = snap.lo
			}
		}
		if !overflowed {
			t.Fatalf("seed %d: the overflow heap was never used", seed)
		}
		drainAgainst(t, "final drain", &c, ref)
		c.Reset() // an empty calendar: what it released must be gone already
		noReferences(t, &c)
		for k := 0; k < 50; k++ {
			c.Push(c.lo+Tick(rng.Intn(3*span)), val())
		}
		c.Reset()
		if c.Len() != 0 || c.NextAt() != Never {
			t.Fatalf("seed %d: reset calendar has Len %d NextAt %d", seed, c.Len(), c.NextAt())
		}
		noReferences(t, &c)
		c.Push(7, val())
		if c.Pop(); c.Len() != 0 {
			t.Fatalf("seed %d: a reset calendar does not hand back its one entry", seed)
		}
	}
}
