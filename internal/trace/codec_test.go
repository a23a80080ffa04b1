package trace

import (
	"bytes"
	"encoding/json"
	"path/filepath"
	"reflect"
	"testing"
	"testing/quick"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

func TestBinaryRoundTrip(t *testing.T) {
	tr := tinyTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	got, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", got, tr)
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	// Random DAG traces round-trip bit-exactly.
	gen := func(seed uint64, n int) *Trace {
		rng := sim.NewRNG(seed)
		tr := &Trace{Nodes: 8, Workload: "prop", RefMakespan: 10000}
		now := sim.Tick(0)
		for i := 0; i < n; i++ {
			id := EventID(i + 1)
			e := Event{
				ID:    id,
				Src:   rng.Intn(8),
				Dst:   rng.Intn(8),
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
			e.Deps = dedupeDeps(e.Deps, id)
			now += e.Gap + 1
			e.RefInject = now
			e.RefArrive = now + sim.Tick(1+rng.Intn(100))
			tr.Events = append(tr.Events, e)
		}
		return tr
	}
	if err := quick.Check(func(seed uint64, nRaw uint8) bool {
		tr := gen(seed, int(nRaw%100)+1)
		if err := tr.Validate(); err != nil {
			return false
		}
		var buf bytes.Buffer
		if err := WriteBinary(&buf, tr); err != nil {
			return false
		}
		got, err := ReadBinary(&buf)
		if err != nil {
			return false
		}
		return reflect.DeepEqual(tr, got)
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestReadBinaryAllocsConstant(t *testing.T) {
	// The decoder allocates a fixed number of times regardless of trace
	// size: events come from one slice, dependency edges from one shared
	// arena. A per-event allocation would put the count in the thousands
	// here and fail loudly.
	rng := sim.NewRNG(7)
	tr := &Trace{Nodes: 8, Workload: "allocs", RefMakespan: 1 << 30}
	now := sim.Tick(0)
	const n = 5000
	for i := 0; i < n; i++ {
		id := EventID(i + 1)
		e := Event{ID: id, Src: rng.Intn(8), Dst: rng.Intn(8), Bytes: 64, Gap: 1}
		for d := 0; d < rng.Intn(3) && i > 0; d++ {
			e.Deps = append(e.Deps, Dep{On: EventID(1 + rng.Intn(i))})
		}
		e.Deps = dedupeDeps(e.Deps, id)
		now += e.Gap + 1
		e.RefInject = now
		e.RefArrive = now + 10
		tr.Events = append(tr.Events, e)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := ReadBinary(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
	})
	// Generous fixed budget: reader plumbing plus the handful of one-shot
	// slices. The point is O(1), not the exact figure.
	if allocs > 64 {
		t.Fatalf("ReadBinary allocated %.0f times for %d events; want a constant well under 64", allocs, n)
	}
}

func TestBinaryRejectsCorruption(t *testing.T) {
	tr := tinyTrace()
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()

	// Bad magic.
	bad := append([]byte("XXXX"), data[4:]...)
	if _, err := ReadBinary(bytes.NewReader(bad)); err == nil {
		t.Fatal("bad magic accepted")
	}
	// Truncations at every prefix must error, never panic.
	for cut := 0; cut < len(data); cut += 3 {
		if _, err := ReadBinary(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	// Bad version.
	bad2 := make([]byte, len(data))
	copy(bad2, data)
	bad2[4] = 99
	if _, err := ReadBinary(bytes.NewReader(bad2)); err == nil {
		t.Fatal("bad version accepted")
	}
}

func TestWriteBinaryRejectsInvalidTrace(t *testing.T) {
	tr := tinyTrace()
	tr.Events[0].Bytes = 0
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err == nil {
		t.Fatal("invalid trace written")
	}
}

func TestFileRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.sctm")
	tr := tinyTrace()
	if err := SaveFile(path, tr); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("file round trip mismatch")
	}
	if _, err := LoadFile(filepath.Join(t.TempDir(), "absent")); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	tr := tinyTrace()
	var buf bytes.Buffer
	if err := WriteJSON(&buf, tr); err != nil {
		t.Fatal(err)
	}
	// The document is for other tools: plain encoding/json must read it back.
	got := &Trace{}
	if err := json.Unmarshal(buf.Bytes(), got); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tr, got) {
		t.Fatal("json round trip mismatch")
	}
}

func TestBinaryCompactness(t *testing.T) {
	// The binary format should be far smaller than JSON for real traces.
	tr := tinyTrace()
	var bin, js bytes.Buffer
	if err := WriteBinary(&bin, tr); err != nil {
		t.Fatal(err)
	}
	if err := WriteJSON(&js, tr); err != nil {
		t.Fatal(err)
	}
	if bin.Len() >= js.Len() {
		t.Fatalf("binary %dB not smaller than JSON %dB", bin.Len(), js.Len())
	}
}
