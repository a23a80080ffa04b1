package trace

import (
	"strings"
	"testing"

	"onocsim/internal/noc"
)

// tinyTrace builds a small well-formed trace:
//
//	e1: 0→1 (no deps)
//	e2: 1→2 (causal on e1)
//	e3: 0→2 (program on e1, sync on e2)
func tinyTrace() *Trace {
	return &Trace{
		Nodes:       4,
		Workload:    "tiny",
		RefMakespan: 100,
		Events: []Event{
			{ID: 1, Src: 0, Dst: 1, Bytes: 8, Class: noc.ClassRequest, Kind: KindRequest,
				Gap: 5, RefInject: 5, RefArrive: 25},
			{ID: 2, Src: 1, Dst: 2, Bytes: 72, Class: noc.ClassResponse, Kind: KindResponse,
				Gap: 6, Deps: []Dep{{On: 1, Class: DepCausal}}, RefInject: 31, RefArrive: 51},
			{ID: 3, Src: 0, Dst: 2, Bytes: 8, Class: noc.ClassRequest, Kind: KindSync,
				Gap: 2, Deps: []Dep{{On: 1, Class: DepProgram}, {On: 2, Class: DepSync}},
				RefInject: 53, RefArrive: 73},
		},
	}
}

func TestTinyTraceValid(t *testing.T) {
	if err := tinyTrace().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Trace)
		want   string
	}{
		{"no nodes", func(tr *Trace) { tr.Nodes = 0 }, "nodes"},
		{"bad id", func(tr *Trace) { tr.Events[1].ID = 7 }, "id"},
		{"src range", func(tr *Trace) { tr.Events[0].Src = 9 }, "endpoints"},
		{"dst range", func(tr *Trace) { tr.Events[0].Dst = -1 }, "endpoints"},
		{"zero bytes", func(tr *Trace) { tr.Events[0].Bytes = 0 }, "size"},
		{"bad class", func(tr *Trace) { tr.Events[0].Class = 99 }, "class"},
		{"bad kind", func(tr *Trace) { tr.Events[0].Kind = 99 }, "kind"},
		{"negative gap", func(tr *Trace) { tr.Events[0].Gap = -1 }, "gap"},
		{"self dep", func(tr *Trace) { tr.Events[1].Deps[0].On = 2 }, "non-earlier"},
		{"future dep", func(tr *Trace) { tr.Events[1].Deps[0].On = 3 }, "non-earlier"},
		{"null dep", func(tr *Trace) { tr.Events[1].Deps[0].On = None }, "non-earlier"},
		{"bad dep class", func(tr *Trace) { tr.Events[1].Deps[0].Class = 9 }, "dep class"},
		{"arrive before inject", func(tr *Trace) { tr.Events[0].RefArrive = 1 }, "before injection"},
		{"negative makespan", func(tr *Trace) { tr.RefMakespan = -1 }, "makespan"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			tr := tinyTrace()
			c.mutate(tr)
			err := tr.Validate()
			if err == nil {
				t.Fatal("mutation accepted")
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// A resident trace's pass yields the events before a malformed one, then
// stops on it with an error that every later Next repeats, as a file's
// reader does.
func TestResidentPassStopsAtMalformedEvent(t *testing.T) {
	tr := tinyTrace()
	tr.Events[1].Dst = 9
	it, err := tr.Pass()
	if err != nil {
		t.Fatal(err)
	}
	var e Event
	if ok, err := it.Next(&e); !ok || err != nil || e.ID != 1 {
		t.Fatalf("first Next = %v, %v, event %d; want event 1", ok, err, e.ID)
	}
	ok, first := it.Next(&e)
	if ok || first == nil || !strings.Contains(first.Error(), "endpoints") {
		t.Fatalf("second Next = %v, %v; want the endpoint error", ok, first)
	}
	if ok, err := it.Next(&e); ok || err != first {
		t.Fatalf("third Next = %v, %v; want the same error %v", ok, err, first)
	}
}

func TestEventAccessor(t *testing.T) {
	tr := tinyTrace()
	if tr.Event(2).Src != 1 {
		t.Fatal("Event(2) wrong")
	}
	for _, id := range []EventID{None, 4} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Event(%d) did not panic", id)
				}
			}()
			tr.Event(id)
		}()
	}
}

func TestComputeStats(t *testing.T) {
	st := tinyTrace().ComputeStats()
	if st.Events != 3 {
		t.Fatalf("events = %d", st.Events)
	}
	if st.Bytes != 88 {
		t.Fatalf("bytes = %d", st.Bytes)
	}
	if st.DepEdges[DepProgram] != 1 || st.DepEdges[DepCausal] != 1 || st.DepEdges[DepSync] != 1 {
		t.Fatalf("dep edges = %v", st.DepEdges)
	}
	if st.ByKind[KindRequest] != 1 || st.ByKind[KindResponse] != 1 || st.ByKind[KindSync] != 1 {
		t.Fatalf("kinds = %v", st.ByKind)
	}
	if !strings.Contains(st.String(), "events=3") {
		t.Fatal("stats String malformed")
	}
}

func TestKindAndDepClassNames(t *testing.T) {
	if KindData.String() != "data" || Kind(99).String() != "invalid" {
		t.Fatal("kind names")
	}
	if DepSync.String() != "sync" || DepClass(9).String() != "invalid" {
		t.Fatal("dep class names")
	}
}
