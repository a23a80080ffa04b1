package cpu

import "fmt"

// lineState is the MSI state of an L1 line.
type lineState uint8

const (
	stateI lineState = iota
	stateS
	stateM
)

func (s lineState) String() string {
	switch s {
	case stateI:
		return "I"
	case stateS:
		return "S"
	case stateM:
		return "M"
	default:
		return "?"
	}
}

// l1Line is one L1 tag entry.
type l1Line struct {
	tag   uint64
	state lineState
	lru   uint64
}

// l1Cache is a set-associative private L1 with LRU replacement and MSI
// states. It is a tag-only timing model: data values are not simulated, only
// presence and coherence permissions.
type l1Cache struct {
	sets     int
	ways     int
	lineBits uint
	// lines holds the tags set by set, ways entries per set: a window of
	// the System's one L1 slab.
	lines []l1Line
	tick  uint64 // LRU clock

	// Stats.
	Hits, Misses, Evictions, DirtyEvictions uint64
}

// newL1 builds an L1 with the given geometry (sets must be a power of two)
// over lines, which holds sets×ways tags.
func newL1(sets, ways, lineBytes int, lines []l1Line) l1Cache {
	if sets <= 0 || sets&(sets-1) != 0 {
		panic(fmt.Sprintf("cpu: l1 sets=%d must be a positive power of two", sets))
	}
	if ways <= 0 {
		panic(fmt.Sprintf("cpu: l1 ways=%d must be positive", ways))
	}
	lb := uint(0)
	for 1<<lb < lineBytes {
		lb++
	}
	if 1<<lb != lineBytes {
		panic(fmt.Sprintf("cpu: line bytes=%d must be a power of two", lineBytes))
	}
	return l1Cache{sets: sets, ways: ways, lineBits: lb, lines: lines[:sets*ways]}
}

// lineOf maps a byte address to its line number.
func (c *l1Cache) lineOf(addr uint64) uint64 { return addr >> c.lineBits }

// set returns the ways of line's set.
func (c *l1Cache) set(line uint64) []l1Line {
	i := (int(line) & (c.sets - 1)) * c.ways
	return c.lines[i : i+c.ways]
}

// lookup returns the way holding line, or nil.
func (c *l1Cache) lookup(line uint64) *l1Line {
	set := c.set(line)
	for i := range set {
		if set[i].state != stateI && set[i].tag == line {
			c.tick++
			set[i].lru = c.tick
			return &set[i]
		}
	}
	return nil
}

// Access checks whether a load (write=false) or store (write=true) hits.
func (c *l1Cache) Access(line uint64, write bool) bool {
	l := c.lookup(line)
	hit := l != nil && (!write || l.state == stateM)
	if hit {
		c.Hits++
	} else {
		c.Misses++
	}
	return hit
}

// victim picks the fill way for line's set, returning the evicted line
// number and whether it was dirty; ok=false means the set had a free way and
// nothing was evicted.
func (c *l1Cache) victim(line uint64) (evicted uint64, dirty, ok bool) {
	set := c.set(line)
	vi, vlru := -1, ^uint64(0)
	for i := range set {
		if set[i].state == stateI {
			return 0, false, false
		}
		if set[i].lru < vlru {
			vi, vlru = i, set[i].lru
		}
	}
	v := &set[vi]
	evicted, dirty = v.tag, v.state == stateM
	v.state = stateI
	c.Evictions++
	if dirty {
		c.DirtyEvictions++
	}
	return evicted, dirty, true
}

// Fill installs line with the given state, assuming any needed eviction was
// already performed via victim.
func (c *l1Cache) Fill(line uint64, st lineState) {
	if st == stateI {
		panic("cpu: filling L1 with invalid state")
	}
	set := c.set(line)
	for i := range set {
		if set[i].state == stateI {
			c.tick++
			set[i] = l1Line{tag: line, state: st, lru: c.tick}
			return
		}
	}
	panic("cpu: L1 fill with no free way — victim not evicted")
}

// Upgrade promotes an S line to M (store after GetM on a present line).
func (c *l1Cache) Upgrade(line uint64) {
	if l := c.lookup(line); l != nil {
		l.state = stateM
		return
	}
	panic(fmt.Sprintf("cpu: upgrading absent line %#x", line))
}

// Invalidate drops a line if present, reporting its prior state.
func (c *l1Cache) Invalidate(line uint64) (was lineState, present bool) {
	l := c.lookup(line)
	if l == nil {
		return stateI, false
	}
	was = l.state
	l.state = stateI
	return was, true
}

// Downgrade moves an M line to S (recall for a reader), reporting whether
// the line was present in M.
func (c *l1Cache) Downgrade(line uint64) bool {
	l := c.lookup(line)
	if l == nil || l.state != stateM {
		return false
	}
	l.state = stateS
	return true
}

// State reports the current state of a line (stateI if absent).
func (c *l1Cache) State(line uint64) lineState {
	if l := c.lookup(line); l != nil {
		return l.state
	}
	return stateI
}
