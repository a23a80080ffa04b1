package simcache

import (
	"bytes"
	"encoding/json"
	"os"
	"sync"
	"testing"

	"onocsim/internal/metrics"
)

// TestNotifyOutcomes checks the observer sees each resolution kind exactly
// once per request: a compute, then a memory hit, and a disk hit in a fresh
// cache sharing the directory.
func TestNotifyOutcomes(t *testing.T) {
	dir := t.TempDir()
	var (
		mu   sync.Mutex
		seen []Outcome
	)
	record := func(_ Key, o Outcome) {
		mu.Lock()
		seen = append(seen, o)
		mu.Unlock()
	}
	c := New(dir)
	c.SetNotify(record)
	key := testKey(1)
	compute := func() (int, error) { return 7, nil }
	if _, err := DoValue(c, key, compute); err != nil {
		t.Fatal(err)
	}
	if _, err := DoValue(c, key, compute); err != nil {
		t.Fatal(err)
	}
	c2 := New(dir)
	c2.SetNotify(record)
	if _, err := DoValue(c2, key, compute); err != nil {
		t.Fatal(err)
	}
	want := []Outcome{OutcomeComputed, OutcomeHit, OutcomeDiskHit}
	if len(seen) != len(want) {
		t.Fatalf("outcomes = %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("outcomes = %v, want %v", seen, want)
		}
	}
	c.SetNotify(nil)
	if _, err := DoValue(c, key, compute); err != nil {
		t.Fatal(err)
	}
	if len(seen) != len(want) {
		t.Fatal("removed observer still notified")
	}
}

// TestDoValueTableRoundTrip persists a typed metrics.Table through the disk
// layer's versioned-JSON envelope and checks a fresh cache reloads it
// rendering byte-identically — the acceptance path for cached experiment
// results.
func TestDoValueTableRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := testKey(2)
	build := func() (*metrics.Table, error) {
		tb := metrics.NewTable("cached", "kernel", "makespan", "err")
		tb.AddCells(metrics.String("fft"), metrics.Int(4500, "cycles"), metrics.Percent(0.018))
		tb.Note("persisted through simcache")
		return tb, nil
	}
	c := New(dir)
	orig, err := DoValue(c, key, build)
	if err != nil {
		t.Fatal(err)
	}
	c2 := New(dir)
	loaded, err := DoValue(c2, key, func() (*metrics.Table, error) {
		t.Fatal("disk layer missed: compute ran")
		return nil, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var a, b bytes.Buffer
	if err := orig.WriteASCII(&a); err != nil {
		t.Fatal(err)
	}
	if err := loaded.WriteASCII(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatalf("table drifted through the disk layer:\n--- stored ---\n%s--- loaded ---\n%s", a.String(), b.String())
	}
	if c := loaded.At(0, 1); c.Kind != metrics.KindInt || c.Int != 4500 || c.Unit != "cycles" {
		t.Fatalf("loaded cell lost its type: %+v", c)
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Fatalf("disk hits = %d, want 1", st.DiskHits)
	}
}

// TestStaleValueFileIsAMiss: a value file written under an older
// valueFormatVersion is recomputed, not decoded, and rewritten at the current
// version. The second case is the layout version 4 stored results in, wrapped
// with the host time of their computation: read as a bare result it decodes
// without error into a zero one, so only the version refuses it.
func TestStaleValueFileIsAMiss(t *testing.T) {
	type result struct{ Makespan int64 }
	for _, stale := range []diskValue{
		{Version: valueFormatVersion - 1, Value: json.RawMessage(`{"Makespan":5}`)},
		{Version: 4, Value: json.RawMessage(`{"Res":{"Makespan":5},"Wall":1234}`)},
	} {
		c := New(t.TempDir())
		key := testKey(3)
		data, _ := json.Marshal(stale)
		if err := os.WriteFile(c.valuePath(key), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := DoValue(c, key, func() (result, error) { return result{7}, nil })
		if err != nil || got.Makespan != 7 {
			t.Fatalf("%s: got %+v, %v; want the recomputed 7", data, got, err)
		}
		if st := c.Stats(); st.Misses != 1 || st.DiskHits != 0 {
			t.Fatalf("%s: misses %d, disk hits %d; want 1 and 0", data, st.Misses, st.DiskHits)
		}
		data, err = os.ReadFile(c.valuePath(key))
		var env diskValue
		if err != nil || json.Unmarshal(data, &env) != nil || env.Version != valueFormatVersion || string(env.Value) != `{"Makespan":7}` {
			t.Fatalf("file not rewritten at version %d: %s (%v)", valueFormatVersion, data, err)
		}
	}
}
