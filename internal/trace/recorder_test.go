package trace

import (
	"strings"
	"testing"

	"onocsim/internal/noc"
)

func TestRecorderBasicFlow(t *testing.T) {
	r := NewRecorder(4)
	id1 := r.RecordSend(SendInfo{Src: 0, Dst: 1, Bytes: 8, Class: noc.ClassRequest,
		Kind: KindRequest, DepResolved: 0, Now: 10})
	if id1 != 1 {
		t.Fatalf("first id = %d", id1)
	}
	r.RecordArrive(id1, 30)
	id2 := r.RecordSend(SendInfo{Src: 1, Dst: 0, Bytes: 72, Class: noc.ClassResponse,
		Kind: KindResponse, Deps: []Dep{{On: id1, Class: DepCausal}}, DepResolved: 30, Now: 36})
	r.RecordArrive(id2, 60)
	id3 := r.RecordSend(SendInfo{Src: 0, Dst: 1, Bytes: 8, Class: noc.ClassRequest,
		Kind: KindRequest, Deps: []Dep{{On: id2, Class: DepProgram}}, DepResolved: 60, Now: 61})
	r.RecordArrive(id3, 65)
	tr, err := r.Finish("flow", 70)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Events[0].Gap != 10 {
		t.Fatalf("gap1 = %d, want 10", tr.Events[0].Gap)
	}
	if tr.Events[1].Gap != 6 {
		t.Fatalf("gap2 = %d, want 6 (service time)", tr.Events[1].Gap)
	}
	if tr.Events[1].Deps[0].On != id1 {
		t.Fatal("dep lost")
	}
	// Events share the recorder's edge arena: an append through one
	// event's Deps must not reach its neighbor's.
	_ = append(tr.Events[1].Deps, Dep{On: id1, Class: DepSync})
	if want := (Dep{On: id2, Class: DepProgram}); tr.Events[2].Deps[0] != want {
		t.Fatalf("event 3 deps = %v after an append to event 2's, want [%v]", tr.Events[2].Deps, want)
	}
	if tr.RefMakespan != 70 || tr.Workload != "flow" {
		t.Fatal("metadata lost")
	}
}

func TestRecorderDedupesDeps(t *testing.T) {
	r := NewRecorder(2)
	a := r.RecordSend(SendInfo{Src: 0, Dst: 1, Bytes: 8, Now: 1})
	r.RecordArrive(a, 5)
	b := r.RecordSend(SendInfo{Src: 1, Dst: 0, Bytes: 8,
		Deps:        []Dep{{On: a, Class: DepCausal}, {On: a, Class: DepCausal}, {On: None}},
		DepResolved: 5, Now: 6})
	r.RecordArrive(b, 9)
	tr, err := r.Finish("dedupe", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events[1].Deps) != 1 {
		t.Fatalf("deps = %v, want one deduped edge", tr.Events[1].Deps)
	}
}

func TestRecorderKeepsDistinctClassesToSameEvent(t *testing.T) {
	r := NewRecorder(2)
	a := r.RecordSend(SendInfo{Src: 0, Dst: 1, Bytes: 8, Now: 1})
	r.RecordArrive(a, 5)
	b := r.RecordSend(SendInfo{Src: 1, Dst: 0, Bytes: 8,
		Deps:        []Dep{{On: a, Class: DepCausal}, {On: a, Class: DepSync}},
		DepResolved: 5, Now: 6})
	r.RecordArrive(b, 9)
	tr, err := r.Finish("classes", 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events[1].Deps) != 2 {
		t.Fatalf("deps = %v, want both classes kept", tr.Events[1].Deps)
	}
}

func TestRecorderPanics(t *testing.T) {
	cases := []func(){
		func() { NewRecorder(0) },
		func() { NewRecorder(2).RecordSend(SendInfo{Src: 5, Dst: 0, Bytes: 8}) },
		func() { NewRecorder(2).RecordSend(SendInfo{Src: 0, Dst: 1, Bytes: 0}) },
		func() { // injected before dep resolved
			NewRecorder(2).RecordSend(SendInfo{Src: 0, Dst: 1, Bytes: 8, DepResolved: 10, Now: 5})
		},
		func() { // dep on future event
			r := NewRecorder(2)
			r.RecordSend(SendInfo{Src: 0, Dst: 1, Bytes: 8, Deps: []Dep{{On: 5}}, Now: 1})
		},
		func() { NewRecorder(2).RecordArrive(1, 10) }, // unknown event
		func() { // double arrival
			r := NewRecorder(2)
			id := r.RecordSend(SendInfo{Src: 0, Dst: 1, Bytes: 8, Now: 1})
			r.RecordArrive(id, 5)
			r.RecordArrive(id, 6)
		},
		func() { // arrival before injection
			r := NewRecorder(2)
			id := r.RecordSend(SendInfo{Src: 0, Dst: 1, Bytes: 8, Now: 10})
			r.RecordArrive(id, 5)
		},
	}
	for i, f := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			f()
		}()
	}
}

func TestFinishRejectsUnarrived(t *testing.T) {
	r := NewRecorder(2)
	r.RecordSend(SendInfo{Src: 0, Dst: 1, Bytes: 8, Now: 1})
	_, err := r.Finish("lost", 10)
	if err == nil || !strings.Contains(err.Error(), "never arrived") {
		t.Fatalf("err = %v", err)
	}
}
