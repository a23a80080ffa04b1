package trace

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
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

// closeTwice closes it twice, the second time a no-op, and requires Next to
// fail after.
func closeTwice(t *testing.T, what string, it Iterator) {
	t.Helper()
	if err := it.Close(); err != nil {
		t.Fatalf("%s: Close: %v", what, err)
	}
	if err := it.Close(); err != nil {
		t.Fatalf("%s: a second Close: %v", what, err)
	}
	var e Event
	if ok, err := it.Next(&e); ok || err == nil {
		t.Fatalf("%s: Next after Close = (%v, %v), want an error", what, ok, err)
	}
}

// TestDecodeAheadMatchesReader: a FileSource pass yields what a Reader over
// the same bytes yields — the events, then the same end: nil after the
// declared count, or the same error text, record number and byte offset
// included — for an intact file, and for files damaged at the first records,
// at the records around the first two refills of the Reader's buffer, and at
// the last record. Each source is read twice: the second pass reuses the
// first pass's Reader, so it also holds reset to clearing a pass's error.
// (The name dates from when a pass decoded blocks ahead on a goroutine of its
// own; a pass is now the Reader itself.)
func TestDecodeAheadMatchesReader(t *testing.T) {
	// A record is at least its nine one-byte fixed fields, so this many
	// events fill the buffer three times over.
	tr := randomStreamTrace(7, 3*readBufSize/9+1, 8)
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
	// Records 1, 2, the one straddling each of the first two buffer refills
	// and the one after it, and the last record.
	damaged := []int{1, 2}
	for _, at := range []int64{readBufSize, 2 * readBufSize} {
		k := 1
		for starts[k] <= at {
			k++
		}
		damaged = append(damaged, k, k+1)
	}
	damaged = append(damaged, len(tr.Events))
	// k is the damaged record, 0 for none.
	type damage struct {
		name string
		data []byte
		k    int
	}
	cases := []damage{{"intact", good, 0}}
	for _, k := range damaged {
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
		for pass := 0; pass < 2; pass++ { // the second pass reuses the first's Reader
			it, err := src.Pass()
			if err != nil {
				t.Fatal(err)
			}
			got, gotErr := readAll(it)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s, pass %d: the pass yields %d events, the Reader %d, or they differ", c.name, pass, len(got), len(want))
			}
			if (gotErr == nil) != (wantErr == nil) || gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("%s, pass %d: the pass ends with %v, the Reader with %v", c.name, pass, gotErr, wantErr)
			}
			var e Event
			if ok, again := it.Next(&e); ok || (again == nil) != (gotErr == nil) || again != nil && again.Error() != gotErr.Error() {
				t.Fatalf("%s, pass %d: Next after the end = (%v, %v), want (false, %v)", c.name, pass, ok, again, gotErr)
			}
			closeTwice(t, c.name, it)
		}
	}
}

// TestDecodeAheadCloseStopsDecoder: Close ends a pass wherever the consumer
// stands — before the first event, across a refill of the Reader's buffer,
// at the end, past it: it hands the pass's Reader back to the source, a
// second Close is a no-op, Next after it fails, and the goroutine count
// stays where it was before the pass.
func TestDecodeAheadCloseStopsDecoder(t *testing.T) {
	// A record is at least its nine one-byte fixed fields, so this many
	// events fill the buffer twice over.
	n := 2*readBufSize/9 + 1
	path := writeTempTrace(t, randomStreamTrace(3, n, 8))
	src, err := NewFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// straddle is the number of records that start before the first refill.
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	straddle := 0
	for r.off <= readBufSize {
		var e Event
		if ok, err := r.Next(&e); !ok || err != nil {
			t.Fatalf("the trace ends at %d bytes, before the first refill", r.off)
		}
		straddle++
	}
	base := runtime.NumGoroutine()
	for _, read := range []int{0, 1, straddle - 1, straddle, n, n + 1} {
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
		what := fmt.Sprintf("closed after %d events", read)
		closeTwice(t, what, it)
		if len(src.free) != 1 {
			t.Fatalf("%s: %d Readers free, want 1", what, len(src.free))
		}
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: %d goroutines, %d before the pass", what, runtime.NumGoroutine(), base)
			}
			time.Sleep(time.Millisecond)
		}
	}
}

// TestFilePassRefusesChangedHeader: a pass over a file rewritten with another
// header since NewFileSource read it is an error naming the path and both
// headers, and the pass's Reader goes back to the source.
func TestFilePassRefusesChangedHeader(t *testing.T) {
	path := writeTempTrace(t, randomStreamTrace(5, 40, 8))
	src, err := NewFileSource(path)
	if err != nil {
		t.Fatal(err)
	}
	was := src.Meta()
	wide := randomStreamTrace(5, 40, 64)
	if err := SaveFile(path, wide); err != nil {
		t.Fatal(err)
	}
	it, err := src.Pass()
	if err == nil {
		it.Close()
		t.Fatal("a pass over a file with a changed header opened")
	}
	for _, part := range []string{path, fmt.Sprintf("%+v", wide.Meta()), fmt.Sprintf("%+v", was)} {
		if !strings.Contains(err.Error(), part) {
			t.Errorf("the error %q does not name %q", err, part)
		}
	}
	if len(src.free) != 1 {
		t.Errorf("the refused pass left %d Readers free, want 1", len(src.free))
	}
}
