package cpu

import (
	"testing"
	"testing/quick"
)

// testL1 is an L1 of the given geometry over its own tag array.
func testL1(sets, ways, lineBytes int) *l1Cache {
	c := newL1(sets, ways, lineBytes, make([]l1Line, sets*ways))
	return &c
}

func TestL1HitMiss(t *testing.T) {
	c := testL1(4, 2, 64)
	line := c.lineOf(0x1000)
	if c.Access(line, false) {
		t.Fatal("cold access hit")
	}
	c.Fill(line, stateS)
	if !c.Access(line, false) {
		t.Fatal("read after S fill missed")
	}
	// A store needs M.
	if c.Access(line, true) {
		t.Fatal("store hit on S line")
	}
	c.Upgrade(line)
	if !c.Access(line, true) {
		t.Fatal("store missed after upgrade")
	}
	if c.Hits != 2 || c.Misses != 2 {
		t.Fatalf("hits=%d misses=%d", c.Hits, c.Misses)
	}
}

func TestL1LineOf(t *testing.T) {
	c := testL1(4, 2, 64)
	if c.lineOf(0) != 0 || c.lineOf(63) != 0 || c.lineOf(64) != 1 || c.lineOf(129) != 2 {
		t.Fatal("lineOf mapping wrong")
	}
}

func TestL1LRUEviction(t *testing.T) {
	// Direct-mapped-ish: 1 set × 2 ways; three distinct lines collide.
	c := testL1(1, 2, 64)
	c.Fill(1, stateS)
	c.Fill(2, stateM)
	// Touch line 1 so line 2 is LRU.
	if !c.Access(1, false) {
		t.Fatal("line 1 gone")
	}
	ev, dirty, ok := c.victim(3)
	if !ok {
		t.Fatal("full set reported free way")
	}
	if ev != 2 || !dirty {
		t.Fatalf("evicted %d dirty=%v, want 2 dirty", ev, dirty)
	}
	c.Fill(3, stateS)
	if c.State(2) != stateI {
		t.Fatal("evicted line still present")
	}
	if c.State(1) != stateS || c.State(3) != stateS {
		t.Fatal("survivors corrupted")
	}
	if c.Evictions != 1 || c.DirtyEvictions != 1 {
		t.Fatalf("eviction counters: %d/%d", c.Evictions, c.DirtyEvictions)
	}
}

func TestL1VictimFreeWay(t *testing.T) {
	c := testL1(1, 2, 64)
	c.Fill(1, stateS)
	if _, _, ok := c.victim(2); ok {
		t.Fatal("victim evicted despite a free way")
	}
}

func TestL1InvalidateAndDowngrade(t *testing.T) {
	c := testL1(2, 2, 64)
	c.Fill(4, stateM)
	if !c.Downgrade(4) {
		t.Fatal("downgrade of M line failed")
	}
	if c.State(4) != stateS {
		t.Fatal("downgrade did not leave S")
	}
	if c.Downgrade(4) {
		t.Fatal("downgrade of S line should report false")
	}
	was, present := c.Invalidate(4)
	if !present || was != stateS {
		t.Fatalf("invalidate: was=%v present=%v", was, present)
	}
	if _, present := c.Invalidate(4); present {
		t.Fatal("double invalidate reported present")
	}
}

func TestL1GeometryPanics(t *testing.T) {
	for _, f := range []func(){
		func() { testL1(3, 2, 64) }, // sets not pow2
		func() { testL1(4, 0, 64) }, // no ways
		func() { testL1(4, 2, 48) }, // line not pow2
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid geometry accepted")
				}
			}()
			f()
		}()
	}
}

func TestL1FillInvalidPanics(t *testing.T) {
	c := testL1(2, 1, 64)
	defer func() {
		if recover() == nil {
			t.Error("fill with stateI accepted")
		}
	}()
	c.Fill(0, stateI)
}

func TestL1PropertyFillThenHit(t *testing.T) {
	// Property: immediately after filling a line, a read access hits.
	c := testL1(16, 4, 64)
	if err := quick.Check(func(raw uint32) bool {
		line := uint64(raw % 4096)
		if c.State(line) == stateI {
			if v, dirty, ok := c.victim(line); ok {
				_ = v
				_ = dirty
			}
			c.Fill(line, stateS)
		}
		return c.Access(line, false)
	}, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestL2BankTouch(t *testing.T) {
	b := newL2Bank(2, 2, make([]l2Line, 2*2))
	if b.touch(10) {
		t.Fatal("cold touch hit")
	}
	if !b.touch(10) {
		t.Fatal("warm touch missed")
	}
	// Fill set 0 (even lines) beyond capacity: 10, 12, 14 collide.
	b.touch(12)
	b.touch(14) // evicts LRU (10)
	if b.touch(10) {
		t.Fatal("evicted line still present")
	}
	if b.Hits != 1 || b.Misses != 4 {
		t.Fatalf("hits=%d misses=%d", b.Hits, b.Misses)
	}
}

func TestBitset(t *testing.T) {
	b := make(bitset, bitsetWords(130))
	for _, i := range []int{0, 63, 64, 127, 129} {
		b.set(i)
	}
	b.clear(64)
	var got []int
	b.forEach(func(i int) { got = append(got, i) })
	want := []int{0, 63, 127, 129}
	if len(got) != len(want) {
		t.Fatalf("forEach = %v", got)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("forEach order = %v, want %v", got, want)
		}
	}
}

func TestProgramValidate(t *testing.T) {
	good := Program{Compute(5), Load(0x40), Lock(1), Store(0x40), Unlock(1), Barrier(1)}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid program rejected: %v", err)
	}
	bad := []Program{
		{Op{Kind: 200}},                          // invalid kind
		{Op{Kind: OpCompute, Arg: 0}},            // zero compute
		{Lock(1), Lock(1), Unlock(1), Unlock(1)}, // re-acquire
		{Unlock(1)},                              // release unheld
		{Lock(1)},                                // ends holding
	}
	for i, p := range bad {
		if err := p.Validate(); err == nil {
			t.Errorf("bad program %d accepted", i)
		}
	}
}

func TestOpConstructors(t *testing.T) {
	if Compute(0).Arg != 1 {
		t.Fatal("Compute floor to 1 cycle")
	}
	if Load(0x123).Kind != OpLoad || Store(0x123).Kind != OpStore {
		t.Fatal("memory op kinds")
	}
	if OpBarrier.String() != "barrier" || OpKind(99).String() != "invalid" {
		t.Fatal("op names")
	}
}
