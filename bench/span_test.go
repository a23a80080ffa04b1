package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// A hand-built tree: two children overlap each other, a third runs past its
// parent's end, and one child has a child of its own.
func TestSelfTimesOverlappingChildren(t *testing.T) {
	spans := []span{
		{Name: "parent", Start: 0, End: 100, Parent: -1},
		{Name: "a", Start: 10, End: 40, Parent: 0},
		{Name: "b", Start: 30, End: 60, Parent: 0}, // overlaps a on [30,40)
		{Name: "late", Start: 90, End: 120, Parent: 0},
		{Name: "a.inner", Start: 15, End: 20, Parent: 1},
		{Name: "open", Start: 5, End: -1, Parent: 0}, // never closed: ignored
	}
	got := selfTimes(spans)
	want := []time.Duration{
		100 - (50 + 10), // union of [10,60) plus [90,100) clipped to the parent
		30 - 5,
		30,
		30,
		5,
		0,
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self time of %q = %d, want %d", spans[i].Name, got[i], want[i])
		}
	}
	total, self := byName(spans)
	if total["a"] != 30 || self["a"] != 25 {
		t.Errorf("byName(a) = %d total, %d self; want 30, 25", total["a"], self["a"])
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var r *recorder
	id := r.begin("x", -1, 0)
	if id != -1 || r.end(id) != 0 {
		t.Fatalf("a nil recorder must hand out -1 and record nothing, got id %d", id)
	}
	r.aggregate("y", id, time.Second, 3) // must not panic
}

func TestAggregateIsAChild(t *testing.T) {
	r := newRecorder()
	p := r.begin("correct", -1, 7)
	time.Sleep(2 * time.Millisecond)
	r.aggregate("enoc", p, time.Millisecond, 1234)
	d := r.end(p)
	self := selfTimes(r.spans)
	if self[p] != d-time.Millisecond {
		t.Fatalf("parent self time %v, want its %v minus the aggregated millisecond", self[p], d)
	}
	if a := r.spans[1]; a.Parent != p || a.Req != 7 || a.Calls != 1234 {
		t.Fatalf("aggregate span %+v does not hang off its parent", a)
	}
}

func TestChromeTraceExport(t *testing.T) {
	r := newRecorder()
	p := r.begin("pass", -1, 1)
	r.end(r.begin("job", p, 1))
	r.end(p)
	path := filepath.Join(t.TempDir(), "trace.json")
	if err := writeChromeTrace(path, r.spans); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 2 || doc.TraceEvents[1].Name != "job" || doc.TraceEvents[1].Ph != "X" {
		t.Fatalf("exported events %+v", doc.TraceEvents)
	}
}
