package sim

import (
	"fmt"
	"math/bits"
	"slices"
)

// Calendar is a queue of values keyed by due cycle that hands them back in
// (cycle, push order): every fabric's decided deliveries and the replay
// decoder's pending injections. Their keys lie a few to a few hundred cycles
// past the last cycle released, never before it, so the calendar keeps a FIFO
// bucket per cycle in a ring of span cycles from the last released one,
// linked through one slab, and a (cycle, push order) min-heap for the rare
// entry due further out. An overflow entry joins its bucket as soon as the
// ring reaches its cycle, before any direct push can land there, so buckets
// stay in push order. Storage survives Reset: a reused calendar stops
// allocating at its peak. A zero Calendar is valid only as a Restore target.
type Calendar[T any] struct {
	lo    Tick   // the last released cycle: nothing is due before it
	n     int    // entries, ring and overflow
	first Tick   // the earliest due cycle, while n > 0
	seq   uint64 // pushes since Reset: the overflow heap's tie-break
	mask  int    // span - 1
	// head and tail are each bucket's ends (slab index + 1, 0 = empty); occ
	// has a bit per non-empty bucket.
	head, tail []int32
	occ        []uint64
	slab       []calEntry[T]
	free       int32         // released slab entries, linked through next
	far        []farEntry[T] // entries due at lo+span or later
}

type calEntry[T any] struct {
	v    T
	next int32 // the bucket's next entry: slab index + 1, 0 = none
}

type farEntry[T any] struct {
	at  Tick
	seq uint64
	v   T
}

// NewCalendar returns an empty calendar whose ring spans span cycles, a power
// of two from 64 to 4096; the owner sizes it to the delays it queues.
func NewCalendar[T any](span int) Calendar[T] {
	if span < 64 || span > 64*64 || span&(span-1) != 0 {
		panic(fmt.Sprintf("sim: calendar span %d is not a power of two in [64, 4096]", span))
	}
	return Calendar[T]{mask: span - 1, head: make([]int32, span), tail: make([]int32, span), occ: make([]uint64, span/64)}
}

// Len returns the number of queued entries.
func (c *Calendar[T]) Len() int { return c.n }

// NextAt returns the earliest due cycle, or Never when the calendar is empty.
func (c *Calendar[T]) NextAt() Tick {
	if c.n == 0 {
		return Never
	}
	return c.first
}

// Push queues v for cycle at, which must not precede the last cycle popped.
func (c *Calendar[T]) Push(at Tick, v T) {
	if at < c.lo {
		panic(fmt.Sprintf("sim: calendar push for cycle %d after cycle %d was released", at, c.lo))
	}
	if c.n == 0 || at < c.first {
		c.first = at
	}
	c.n++
	c.seq++
	if at-c.lo > Tick(c.mask) {
		c.pushFar(farEntry[T]{at: at, seq: c.seq, v: v})
		return
	}
	c.append(at, v)
}

// append adds v at the tail of cycle at's bucket.
func (c *Calendar[T]) append(at Tick, v T) {
	e := c.free
	if e != 0 {
		c.free = c.slab[e-1].next
		c.slab[e-1] = calEntry[T]{v: v}
	} else {
		c.slab = append(c.slab, calEntry[T]{v: v})
		e = int32(len(c.slab))
	}
	b := int(at) & c.mask
	if c.tail[b] == 0 {
		c.head[b] = e
		c.occ[b>>6] |= 1 << (b & 63)
	} else {
		c.slab[c.tail[b]-1].next = e
	}
	c.tail[b] = e
}

// Pop removes and returns the entry with the smallest (cycle, push order).
// The calendar must not be empty.
func (c *Calendar[T]) Pop() T {
	at := c.first
	if at > c.lo {
		// The ring moves up to at and takes in the overflow entries it now
		// covers, at the heads of their buckets.
		c.lo = at
		for len(c.far) > 0 && c.far[0].at-at <= Tick(c.mask) {
			f := c.popFar()
			c.append(f.at, f.v)
		}
	}
	c.n--
	b := int(at) & c.mask
	e := c.head[b]
	ent := &c.slab[e-1]
	v := ent.v
	c.head[b] = ent.next
	*ent = calEntry[T]{next: c.free} // drop the value's references
	c.free = e
	if c.head[b] == 0 {
		c.tail[b] = 0
		c.occ[b>>6] &^= 1 << (b & 63)
		if c.first = c.scan(at + 1); c.first == Never && len(c.far) > 0 {
			c.first = c.far[0].at
		}
	}
	return v
}

// scan returns the first occupied ring cycle at or after from, given that
// none lies in [lo, from), or Never when the ring is empty. From's own word
// comes last again, unmasked: its bits before from are cycles a ring later.
func (c *Calendar[T]) scan(from Tick) Tick {
	b := int(from) & c.mask
	base := from - Tick(b&63) // the cycle of the word's bit 0
	w := c.occ[b>>6] &^ (1<<(b&63) - 1)
	for k := 1; w == 0; k++ {
		if k > len(c.occ) {
			return Never
		}
		base += 64
		w = c.occ[(b>>6+k)&(len(c.occ)-1)]
	}
	return base + Tick(bits.TrailingZeros64(w))
}

// Grow makes room for n more entries in the ring's buckets, so an owner that
// knows its peak allocates the storage once.
func (c *Calendar[T]) Grow(n int) { c.slab = slices.Grow(c.slab, n) }

// Reset empties the calendar, keeping its storage but no reference to a
// queued value.
func (c *Calendar[T]) Reset() {
	if c.n > 0 {
		clear(c.head)
		clear(c.tail)
		clear(c.occ)
		clear(c.slab)
		clear(c.far)
	}
	c.lo, c.n, c.seq, c.free = 0, 0, 0, 0
	c.slab, c.far = c.slab[:0], c.far[:0]
}

// Restore makes c a copy of src in new storage; src is not changed.
// Each queued value of the copy is dup of the original (dup nil: the value
// itself).
func (c *Calendar[T]) Restore(src *Calendar[T], dup func(T) T) {
	*c = *src
	c.head, c.tail, c.occ = slices.Clone(src.head), slices.Clone(src.tail), slices.Clone(src.occ)
	c.slab, c.far = slices.Clone(src.slab), slices.Clone(src.far)
	if dup == nil {
		return
	}
	for i := range c.far {
		c.far[i].v = dup(c.far[i].v)
	}
	for i, w := range c.occ {
		for ; w != 0; w &= w - 1 {
			for e := c.head[i<<6+bits.TrailingZeros64(w)]; e != 0; e = c.slab[e-1].next {
				c.slab[e-1].v = dup(c.slab[e-1].v)
			}
		}
	}
}

// Overflowed reports whether an entry has been pushed beyond the ring since
// the calendar was built or restored (the overflow heap keeps its storage).
// Tests use it to show they reach the overflow path.
func (c *Calendar[T]) Overflowed() bool { return cap(c.far) > 0 }

// before is the overflow heap's order: cycle, then push order.
func (a *farEntry[T]) before(b *farEntry[T]) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// pushFar and popFar keep far a binary min-heap.
func (c *Calendar[T]) pushFar(f farEntry[T]) {
	h := append(c.far, f)
	for i := len(h) - 1; i > 0 && h[i].before(&h[(i-1)/2]); i = (i - 1) / 2 {
		h[i], h[(i-1)/2] = h[(i-1)/2], h[i]
	}
	c.far = h
}

func (c *Calendar[T]) popFar() farEntry[T] {
	h, last := c.far, len(c.far)-1
	top := h[0]
	h[0], h[last] = h[last], farEntry[T]{} // the old last slot drops its references
	h = h[:last]
	for i := 0; ; {
		k := 2*i + 1
		if k+1 < last && h[k+1].before(&h[k]) {
			k++
		}
		if k >= last || !h[k].before(&h[i]) {
			break
		}
		h[i], h[k] = h[k], h[i]
		i = k
	}
	c.far = h
	return top
}
