package trace

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// collect drains a pass into a slice, copying Deps (the iterator reuses its
// buffer).
func collect(t *testing.T, src Source) []Event {
	t.Helper()
	it, err := src.Pass()
	if err != nil {
		t.Fatal(err)
	}
	defer it.Close()
	var out []Event
	var e Event
	for {
		ok, err := it.Next(&e)
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return out
		}
		c := e
		if len(e.Deps) > 0 {
			c.Deps = append([]Dep(nil), e.Deps...)
		}
		out = append(out, c)
	}
}

func writeTempTrace(t *testing.T, tr *Trace) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "trace.sctm")
	if err := SaveFile(path, tr); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestFileSourceMatchesTrace(t *testing.T) {
	tr := tinyTrace()
	src, err := NewFileSource(writeTempTrace(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	m := src.Meta()
	want := Meta{Nodes: tr.Nodes, Workload: tr.Workload, RefMakespan: tr.RefMakespan, NumEvents: len(tr.Events)}
	if m != want {
		t.Fatalf("meta %+v, want %+v", m, want)
	}
	if got := collect(t, src); !reflect.DeepEqual(got, tr.Events) {
		t.Fatalf("events mismatch:\n got %+v\nwant %+v", got, tr.Events)
	}
	// Passes must be independent and repeatable.
	if got := collect(t, src); !reflect.DeepEqual(got, tr.Events) {
		t.Fatal("second pass diverged from the first")
	}
}

// A resident trace is a Source of its own events.
func TestTraceIsASource(t *testing.T) {
	tr := tinyTrace()
	if got := collect(t, tr); !reflect.DeepEqual(got, tr.Events) {
		t.Fatalf("events mismatch:\n got %+v\nwant %+v", got, tr.Events)
	}
}

func TestConcurrentPasses(t *testing.T) {
	// The sharded engine opens one pass per shard; interleaved Next calls on
	// separate passes must not interfere.
	tr := tinyTrace()
	src, err := NewFileSource(writeTempTrace(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	a, err := src.Pass()
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := src.Pass()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	var ea, eb Event
	for i := range tr.Events {
		if ok, err := a.Next(&ea); !ok || err != nil {
			t.Fatalf("pass a event %d: ok=%v err=%v", i, ok, err)
		}
		if ok, err := b.Next(&eb); !ok || err != nil {
			t.Fatalf("pass b event %d: ok=%v err=%v", i, ok, err)
		}
		if ea.ID != eb.ID || ea.Src != eb.Src {
			t.Fatalf("interleaved passes diverged at event %d", i)
		}
	}
}

func TestStreamStatsMatchesComputeStats(t *testing.T) {
	tr := tinyTrace()
	fsrc, err := NewFileSource(writeTempTrace(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	for _, src := range []Source{tr, fsrc} {
		an, err := StreamAnalyze(src, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := tr.ComputeStats(); an.Stats != want {
			t.Fatalf("%T: streamed stats %+v, want %+v", src, an.Stats, want)
		}
	}
}

func TestWriterRoundTripThroughReader(t *testing.T) {
	tr := tinyTrace()
	var buf bytes.Buffer
	w, err := NewWriter(&buf, Meta{Nodes: tr.Nodes, Workload: tr.Workload, RefMakespan: tr.RefMakespan, NumEvents: len(tr.Events)})
	if err != nil {
		t.Fatal(err)
	}
	for i := range tr.Events {
		// ID 0 exercises writer-side ID assignment.
		e := tr.Events[i]
		e.ID = None
		if err := w.Append(&e); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestWriterMisuse(t *testing.T) {
	meta := Meta{Nodes: 2, Workload: "m", NumEvents: 1}
	ev := Event{Src: 0, Dst: 1, Bytes: 8, RefArrive: 1}

	t.Run("close before count reached", func(t *testing.T) {
		w, err := NewWriter(&bytes.Buffer{}, meta)
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err == nil || !strings.Contains(err.Error(), "0 of 1") {
			t.Fatalf("early close error = %v", err)
		}
	})
	t.Run("append beyond count", func(t *testing.T) {
		w, err := NewWriter(&bytes.Buffer{}, meta)
		if err != nil {
			t.Fatal(err)
		}
		e := ev
		if err := w.Append(&e); err != nil {
			t.Fatal(err)
		}
		e2 := ev
		e2.ID = None
		if err := w.Append(&e2); err == nil || !strings.Contains(err.Error(), "beyond declared") {
			t.Fatalf("over-append error = %v", err)
		}
	})
	t.Run("append out of order", func(t *testing.T) {
		w, err := NewWriter(&bytes.Buffer{}, Meta{Nodes: 2, Workload: "m", NumEvents: 2})
		if err != nil {
			t.Fatal(err)
		}
		e := ev
		e.ID = 2
		if err := w.Append(&e); err == nil || !strings.Contains(err.Error(), "out of order") {
			t.Fatalf("out-of-order error = %v", err)
		}
	})
	t.Run("append invalid event", func(t *testing.T) {
		w, err := NewWriter(&bytes.Buffer{}, meta)
		if err != nil {
			t.Fatal(err)
		}
		e := ev
		e.Bytes = 0
		if err := w.Append(&e); err == nil || !strings.Contains(err.Error(), "non-positive size") {
			t.Fatalf("invalid-event error = %v", err)
		}
	})
	t.Run("append after close", func(t *testing.T) {
		w, err := NewWriter(&bytes.Buffer{}, Meta{Nodes: 2, Workload: "m", NumEvents: 0})
		if err != nil {
			t.Fatal(err)
		}
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		e := ev
		if err := w.Append(&e); err == nil || !strings.Contains(err.Error(), "closed writer") {
			t.Fatalf("append-after-close error = %v", err)
		}
	})
}

// rawTrace hand-encodes a binary trace so tests can produce byte sequences
// the Writer's validation would refuse.
type rawTrace struct{ buf bytes.Buffer }

func (r *rawTrace) u(v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	r.buf.Write(tmp[:binary.PutUvarint(tmp[:], v)])
}

func (r *rawTrace) header(nodes, nevents uint64, workload string) {
	r.buf.WriteString(magic)
	r.u(formatVersion)
	r.u(nodes)
	r.u(uint64(len(workload)))
	r.buf.WriteString(workload)
	r.u(0) // makespan
	r.u(nevents)
}

func (r *rawTrace) event(src, dst, size, class, kind, gap, ri, ra uint64, deps ...uint64) {
	for _, v := range []uint64{src, dst, size, class, kind, gap, ri, ra, uint64(len(deps) / 2)} {
		r.u(v)
	}
	for _, v := range deps {
		r.u(v)
	}
}

func TestReaderErrorsCarryOffsetAndRecord(t *testing.T) {
	t.Run("bad magic", func(t *testing.T) {
		_, err := newReader(bytes.NewReader([]byte("XCTM\x01")))
		if err == nil || !strings.Contains(err.Error(), "header (byte offset") {
			t.Fatalf("error = %v", err)
		}
	})
	t.Run("truncated header", func(t *testing.T) {
		_, err := newReader(bytes.NewReader([]byte("SCTM\x01\x04")))
		if err == nil || !strings.Contains(err.Error(), "header (byte offset 6)") {
			t.Fatalf("error = %v", err)
		}
	})
	t.Run("invalid record field", func(t *testing.T) {
		var r rawTrace
		r.header(4, 2, "w")
		r.event(0, 1, 8, 0, 0, 0, 0, 5)
		r.event(1, 2, 0, 0, 0, 0, 0, 5) // zero-byte payload: invalid
		got, err := ReadBinary(&r.buf)
		if err == nil {
			t.Fatalf("corrupt record accepted: %+v", got)
		}
		msg := err.Error()
		if !strings.Contains(msg, "record 2 (byte offset") || !strings.Contains(msg, "non-positive size") {
			t.Fatalf("error %q lacks record/offset context", msg)
		}
	})
	t.Run("truncated mid record", func(t *testing.T) {
		var r rawTrace
		r.header(4, 2, "w")
		r.event(0, 1, 8, 0, 0, 0, 0, 5)
		raw := r.buf.Bytes()
		raw = append(raw, 2, 3) // record 2 begins, then the stream ends
		_, err := ReadBinary(bytes.NewReader(raw))
		if err == nil || !strings.Contains(err.Error(), "record 2 (byte offset") {
			t.Fatalf("error = %v", err)
		}
	})
	t.Run("missing events", func(t *testing.T) {
		var r rawTrace
		r.header(4, 3, "w")
		r.event(0, 1, 8, 0, 0, 0, 0, 5)
		_, err := ReadBinary(&r.buf)
		if err == nil || !strings.Contains(err.Error(), "record 2") {
			t.Fatalf("error = %v", err)
		}
	})
	t.Run("bad dep delta", func(t *testing.T) {
		var r rawTrace
		r.header(4, 2, "w")
		r.event(0, 1, 8, 0, 0, 0, 0, 5)
		r.event(1, 2, 8, 0, 0, 0, 0, 5, 2, 0) // delta 2 from id 2 → id 0: invalid
		_, err := ReadBinary(&r.buf)
		if err == nil || !strings.Contains(err.Error(), "invalid dep delta") {
			t.Fatalf("error = %v", err)
		}
	})
	t.Run("sticky error", func(t *testing.T) {
		var r rawTrace
		r.header(4, 1, "w")
		r.event(0, 1, 0, 0, 0, 0, 0, 0) // invalid size
		sr, err := newReader(&r.buf)
		if err != nil {
			t.Fatal(err)
		}
		var e Event
		if _, err := sr.Next(&e); err == nil {
			t.Fatal("corrupt record accepted")
		}
		if _, err := sr.Next(&e); err == nil {
			t.Fatal("error did not stick")
		}
	})
}

func TestReaderToleratesTrailingBytes(t *testing.T) {
	tr := tinyTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	buf.Write([]byte("trailing garbage"))
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, tr) {
		t.Fatal("trailing bytes corrupted decode")
	}
}

func TestReaderRejectsImplausibleFields(t *testing.T) {
	big := uint64(1)<<62 + 1
	t.Run("huge gap", func(t *testing.T) {
		var r rawTrace
		r.header(4, 1, "w")
		r.event(0, 1, 8, 0, 0, big, 0, 5)
		_, err := ReadBinary(&r.buf)
		if err == nil || !strings.Contains(err.Error(), "implausible gap") {
			t.Fatalf("error = %v", err)
		}
	})
	t.Run("huge event count", func(t *testing.T) {
		var r rawTrace
		r.header(4, uint64(1)<<40, "w")
		_, err := newReader(&r.buf)
		if err == nil || !strings.Contains(err.Error(), "implausible event count") {
			t.Fatalf("error = %v", err)
		}
	})
	t.Run("dep count exceeds earlier events", func(t *testing.T) {
		var r rawTrace
		r.header(4, 1, "w")
		r.event(0, 1, 8, 0, 0, 0, 0, 5, 1, 0, 1, 0, 1, 0) // claims 3 deps before any event exists
		_, err := ReadBinary(&r.buf)
		if err == nil || !strings.Contains(err.Error(), "claims 3 deps") {
			t.Fatalf("error = %v", err)
		}
	})
}

func TestNewFileSourceRejectsCorruptHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.sctm")
	if err := os.WriteFile(path, []byte("not a trace"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := NewFileSource(path); err == nil {
		t.Fatal("corrupt header accepted")
	} else if !strings.Contains(err.Error(), path) {
		t.Fatalf("error %q does not name the file", err)
	}
}

// randomStreamTrace builds a random valid DAG trace for streaming tests.
func randomStreamTrace(seed uint64, n, nodes int) *Trace {
	rng := sim.NewRNG(seed)
	tr := &Trace{Nodes: nodes, Workload: "stream-prop", RefMakespan: 100000}
	r := NewRecorder(nodes)
	now := sim.Tick(0)
	for i := 0; i < n; i++ {
		id := EventID(i + 1)
		e := Event{
			ID:    id,
			Src:   rng.Intn(nodes),
			Dst:   rng.Intn(nodes),
			Bytes: 1 + rng.Intn(256),
			Class: noc.Class(rng.Intn(3)),
			Kind:  Kind(rng.Intn(int(numKinds))),
			Gap:   sim.Tick(rng.Intn(50)),
		}
		for d := 0; d < rng.Intn(3) && i > 0; d++ {
			e.Deps = append(e.Deps, Dep{
				On:    EventID(1 + rng.Intn(i)),
				Class: DepClass(rng.Intn(int(numDepClasses))),
			})
		}
		e.Deps = r.dedupe(e.Deps, id)
		now += e.Gap + 1
		e.RefInject = now
		e.RefArrive = now + sim.Tick(1+rng.Intn(100))
		tr.Events = append(tr.Events, e)
	}
	return tr
}

func TestFileSourceMatchesTraceProperty(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		tr := randomStreamTrace(seed, 200, 8)
		if err := tr.Validate(); err != nil {
			t.Fatal(err)
		}
		src, err := NewFileSource(writeTempTrace(t, tr))
		if err != nil {
			t.Fatal(err)
		}
		if got := collect(t, src); !reflect.DeepEqual(got, tr.Events) {
			t.Fatalf("seed %d: streamed events diverge from materialized trace", seed)
		}
		an, err := StreamAnalyze(src, StreamOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if want := tr.ComputeStats(); an.Stats != want {
			t.Fatalf("seed %d: streamed stats %+v, want %+v", seed, an.Stats, want)
		}
	}
}
