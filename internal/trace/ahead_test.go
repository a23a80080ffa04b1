package trace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// readAll drains it, copying each event's Deps, and returns the events and
// the error that ended the pass.
func readAll(it Iterator) ([]Event, error) {
	var out []Event
	var e Event
	for {
		ok, err := it.Next(&e)
		if !ok {
			return out, err
		}
		c := e
		if len(e.Deps) > 0 {
			c.Deps = append([]Dep(nil), e.Deps...)
		}
		out = append(out, c)
	}
}

// TestDecodeAheadMatchesReader: a FileSource pass, decoded blocks ahead on
// its own goroutine, yields what a synchronous Reader yields over the same
// bytes — the events, then the same end: nil after the declared count, or the
// same error text, record number and byte offset included, however far into
// which block the file is damaged. The trace spans three blocks and part of
// a fourth.
func TestDecodeAheadMatchesReader(t *testing.T) {
	tr := randomStreamTrace(7, 3*blockEvents+17, 8)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, tr); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// starts[k] is the byte offset of record k+1.
	r, err := NewReader(bytes.NewReader(good))
	if err != nil {
		t.Fatal(err)
	}
	var starts []int64
	for {
		starts = append(starts, r.off)
		var e Event
		if ok, err := r.Next(&e); !ok || err != nil {
			break
		}
	}
	// k is the damaged record, 0 for none.
	type damage struct {
		name string
		data []byte
		k    int
	}
	cases := []damage{{"intact", good, 0}}
	for _, k := range []int{1, 2, blockEvents, blockEvents + 1, 2*blockEvents + 5, len(tr.Events)} {
		at := starts[k-1]
		bad := bytes.Clone(good)
		bad[at] = 0x7f // src 127 on an 8-node trace
		cases = append(cases, damage{fmt.Sprintf("src-%d", k), bad, k}, damage{fmt.Sprintf("cut-%d", k), good[:at+3], k})
	}
	dir := t.TempDir()
	for _, c := range cases {
		path := filepath.Join(dir, c.name+".sctm")
		if err := os.WriteFile(path, c.data, 0o644); err != nil {
			t.Fatal(err)
		}
		sync, err := NewReader(bytes.NewReader(c.data))
		if err != nil {
			t.Fatal(err)
		}
		want, wantErr := readAll(sync)
		if c.k > 0 && (wantErr == nil || len(want) != c.k-1) {
			t.Fatalf("%s: the Reader read %d events and ended with %v", c.name, len(want), wantErr)
		}
		src, err := NewFileSource(path)
		if err != nil {
			t.Fatal(err)
		}
		for pass := 0; pass < 2; pass++ { // the second pass reuses the first's blocks
			it, err := src.Pass()
			if err != nil {
				t.Fatal(err)
			}
			got, gotErr := readAll(it)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: the pass yields %d events, the Reader %d, or they differ", c.name, len(got), len(want))
			}
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s: the pass ends with %v, the Reader with %v", c.name, gotErr, wantErr)
			}
			var e Event
			if ok, again := it.Next(&e); ok || (again == nil) != (gotErr == nil) || again != nil && again.Error() != gotErr.Error() {
				t.Fatalf("%s: Next after the end = (%v, %v), want (false, %v)", c.name, ok, again, gotErr)
			}
			if err := it.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestDecodeAheadCloseStopsDecoder: Close ends a pass's decoder goroutine
// wherever the consumer stands — before the first event, inside a block,
// between blocks, past the end — so the goroutine count returns to where it
// was.
func TestDecodeAheadCloseStopsDecoder(t *testing.T) {
	src, err := NewFileSource(writeTempTrace(t, randomStreamTrace(3, 10*blockEvents, 8)))
	if err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	for _, read := range []int{0, 1, blockEvents - 1, blockEvents, 3*blockEvents + 2, 10 * blockEvents, 10*blockEvents + 1} {
		it, err := src.Pass()
		if err != nil {
			t.Fatal(err)
		}
		var e Event
		for i := 0; i < read; i++ {
			if _, err := it.Next(&e); err != nil {
				t.Fatal(err)
			}
		}
		if err := it.Close(); err != nil {
			t.Fatal(err)
		}
		if err := it.Close(); err != nil {
			t.Fatalf("a second Close: %v", err)
		}
		if ok, err := it.Next(&e); ok || err == nil {
			t.Fatalf("Next after Close = (%v, %v), want an error", ok, err)
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("closed after %d events: %d goroutines, %d before the pass", read, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}
