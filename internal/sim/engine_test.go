package sim

import "testing"

// runAll steps the engine until its queue is empty and returns the final time.
func runAll(e *Engine) Tick {
	for e.Step() {
	}
	return e.Now()
}

func TestEngineOrdersByTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.Schedule(30, func() { got = append(got, 3) })
	e.Schedule(10, func() { got = append(got, 1) })
	e.Schedule(20, func() { got = append(got, 2) })
	end := runAll(e)
	if end != 30 {
		t.Fatalf("final time = %d, want 30", end)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("execution order %v, want [1 2 3]", got)
	}
}

func TestEngineTiesBreakBySchedulingOrder(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(5, func() { got = append(got, i) })
	}
	runAll(e)
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break order %v, want ascending scheduling order", got)
		}
	}
}

func TestEngineEventsScheduleMoreEvents(t *testing.T) {
	e := NewEngine()
	count := 0
	var chain func()
	chain = func() {
		count++
		if count < 100 {
			e.Schedule(e.Now()+2, chain)
		}
	}
	e.Schedule(0, chain)
	end := runAll(e)
	if count != 100 {
		t.Fatalf("count = %d, want 100", count)
	}
	if end != 198 {
		t.Fatalf("final time = %d, want 198", end)
	}
	if e.Executed != 100 {
		t.Fatalf("Executed = %d, want 100", e.Executed)
	}
}

func TestEngineSchedulePastPanics(t *testing.T) {
	e := NewEngine()
	e.Schedule(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(5, func() {})
	})
	runAll(e)
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var got []Tick
	for _, at := range []Tick{5, 10, 15, 20} {
		at := at
		e.Schedule(at, func() { got = append(got, at) })
	}
	now := e.RunUntil(12)
	if now != 12 {
		t.Fatalf("RunUntil returned %d, want 12", now)
	}
	if len(got) != 2 {
		t.Fatalf("executed %v, want events at 5 and 10 only", got)
	}
	// Time advances to the deadline even with an empty window.
	e2 := NewEngine()
	if now := e2.RunUntil(50); now != 50 {
		t.Fatalf("empty RunUntil returned %d, want 50", now)
	}
}

func TestEngineStepEmpty(t *testing.T) {
	e := NewEngine()
	if e.Step() {
		t.Fatal("Step on empty queue returned true")
	}
}

func TestEngineNextAt(t *testing.T) {
	e := NewEngine()
	if _, ok := e.NextAt(); ok {
		t.Fatal("NextAt on empty engine reported a pending event")
	}
	e.Schedule(42, func() {})
	e.Schedule(7, func() {})
	if at, ok := e.NextAt(); !ok || at != 7 {
		t.Fatalf("NextAt = (%d, %v), want (7, true)", at, ok)
	}
	e.Step()
	if at, ok := e.NextAt(); !ok || at != 42 {
		t.Fatalf("NextAt after step = (%d, %v), want (42, true)", at, ok)
	}
}

// TestEngineOrderRandomized cross-checks the engine against a large
// randomized schedule, most of it beyond the calendar's ring: execution must
// be sorted by (time, seq).
func TestEngineOrderRandomized(t *testing.T) {
	e := NewEngine()
	rng := NewStream(99, "engine-heap")
	const n = 5000
	type fired struct {
		at  Tick
		seq int
	}
	var got []fired
	for i := 0; i < n; i++ {
		i := i
		at := Tick(rng.Intn(1000))
		e.Schedule(at, func() { got = append(got, fired{at: at, seq: i}) })
	}
	runAll(e)
	if len(got) != n {
		t.Fatalf("fired %d events, want %d", len(got), n)
	}
	for i := 1; i < n; i++ {
		a, b := got[i-1], got[i]
		if a.at > b.at || (a.at == b.at && a.seq > b.seq) {
			t.Fatalf("events out of order at %d: %+v before %+v", i, a, b)
		}
	}
}

// BenchmarkEngineScheduleStep measures the steady-state cost of one
// schedule+execute cycle, the engine's hot loop in the bank-response model.
func BenchmarkEngineScheduleStep(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.now+3, fn)
		e.Step()
	}
}

// BenchmarkEngineChurn measures a deeper queue: 64 resident events with one
// schedule+pop per iteration, spread over a dozen calendar buckets.
func BenchmarkEngineChurn(b *testing.B) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.Schedule(Tick(i*7%97), fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.now+Tick(i%13)+1, fn)
		e.Step()
	}
}

// BenchmarkEngineRunUntil measures the per-cycle cost of the synchronous
// window flush when the queue is empty — the common case in System.tick.
func BenchmarkEngineRunUntil(b *testing.B) {
	e := NewEngine()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.RunUntil(Tick(i))
	}
}
