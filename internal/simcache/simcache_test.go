package simcache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
	"onocsim/internal/trace"
)

func testKey(i int) Key {
	return Key{Fingerprint: fmt.Sprintf("%064x", i), Kind: "optical", Op: OpTruth}
}

func TestDoSingleFlight(t *testing.T) {
	// N concurrent requesters of one key: exactly one compute runs, every
	// caller gets its value, and the duplicates are counted as waits.
	c := New("")
	const n = 32
	var computes atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	var wg sync.WaitGroup
	results := make([]any, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err := c.Do(testKey(1), func() (any, error) {
				close(started) // only the single flight may get here
				computes.Add(1)
				<-release
				return "value", nil
			})
			if err != nil {
				t.Errorf("goroutine %d: %v", i, err)
			}
			results[i] = v
		}(i)
	}
	<-started
	// Give the other goroutines a chance to pile onto the in-flight entry;
	// a second compute reaching close(started) would panic immediately.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	if got := computes.Load(); got != 1 {
		t.Fatalf("compute ran %d times, want 1", got)
	}
	for i, v := range results {
		if v != "value" {
			t.Fatalf("goroutine %d got %v", i, v)
		}
	}
	st := c.Stats()
	if st.Misses != 1 {
		t.Fatalf("misses = %d, want 1", st.Misses)
	}
	if st.Hits+st.Waits != n-1 {
		t.Fatalf("hits+waits = %d+%d, want %d", st.Hits, st.Waits, n-1)
	}
}

func TestDoErrorPropagatesAndIsNotCached(t *testing.T) {
	c := New("")
	boom := errors.New("transient fabric failure")
	var calls atomic.Int64

	// First flight fails; concurrent waiters must all see the error.
	release := make(chan struct{})
	started := make(chan struct{})
	const waiters = 8
	var wg sync.WaitGroup
	errs := make([]error, waiters)
	for i := 0; i < waiters; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = c.Do(testKey(2), func() (any, error) {
				close(started)
				calls.Add(1)
				<-release
				return nil, boom
			})
		}(i)
	}
	<-started
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("waiter %d got %v, want the flight's error", i, err)
		}
	}

	// The failure must not be cached: the next request recomputes, and this
	// time the value sticks.
	v, err := c.Do(testKey(2), func() (any, error) {
		calls.Add(1)
		return 42, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("retry after failed flight: v=%v err=%v", v, err)
	}
	if got := calls.Load(); got != 2 {
		t.Fatalf("compute ran %d times, want 2 (one failure, one retry)", got)
	}
	// And the retry's success is cached like any other value.
	v, err = c.Do(testKey(2), func() (any, error) {
		t.Error("cached success recomputed")
		return nil, nil
	})
	if err != nil || v != 42 {
		t.Fatalf("cached value after retry: v=%v err=%v", v, err)
	}
}

// A computation that panics must not poison its key: the flight's entry is
// stored before compute runs, so left alone it would stay in the map with its
// done channel open, and the waiter here — and every later request for the
// key — would block forever.
func TestDoPanicFailsTheFlightAndFreesTheKey(t *testing.T) {
	c := New("")
	key := testKey(7)
	started, release := make(chan struct{}), make(chan struct{})
	errs := make(chan error, 2)
	go func() {
		// As net/http does around a handler: the process outlives the panic.
		defer func() {
			if r := recover(); r != nil {
				errs <- fmt.Errorf("panic escaped Do: %v", r)
			}
		}()
		_, err := c.Do(key, func() (any, error) {
			close(started)
			<-release
			panic("boom")
		})
		errs <- err
	}()
	<-started
	go func() {
		_, err := c.Do(key, func() (any, error) { return "a second flight", nil })
		errs <- err
	}()
	for c.Stats().Waits == 0 {
		time.Sleep(time.Millisecond)
	}
	close(release)
	for i := 0; i < 2; i++ {
		select {
		case err := <-errs:
			if err == nil || err.Error() != "simcache: computation panicked: boom" {
				t.Fatalf("panicked flight returned %v", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("a request for the panicked key never returned")
		}
	}
	v, err := DoValue(c, key, func() (string, error) { return "healthy", nil })
	if err != nil || v != "healthy" {
		t.Fatalf("retry after a panic: %q, %v", v, err)
	}
	if st := c.Stats(); st.Panics != 1 || st.Misses != 2 || st.Waits != 1 {
		t.Fatalf("stats after one panic, one waiter and a retry: %+v", st)
	}
}

func TestDoDistinctKeysDoNotShare(t *testing.T) {
	c := New("")
	for i := 0; i < 4; i++ {
		v, err := c.Do(testKey(i), func() (any, error) { return i, nil })
		if err != nil || v != i {
			t.Fatalf("key %d: v=%v err=%v", i, v, err)
		}
	}
	if st := c.Stats(); st.Misses != 4 || st.Hits != 0 {
		t.Fatalf("stats = %+v, want 4 misses", st)
	}
}

// diskTrace builds a small but structurally complete trace for persistence
// tests: multiple nodes, classes, and dependency edges.
func diskTrace() *trace.Trace {
	tr := &trace.Trace{Nodes: 4, Workload: "disk", RefMakespan: 500}
	for i := 0; i < 10; i++ {
		e := trace.Event{
			ID: trace.EventID(i + 1), Src: i % 4, Dst: (i + 1) % 4,
			Bytes: 64, Class: noc.Class(i % 2), Gap: 1,
			RefInject: sim.Tick(10 * (i + 1)), RefArrive: sim.Tick(10*(i+1) + 5),
		}
		if i > 0 {
			e.Deps = []trace.Dep{{On: trace.EventID(i), Class: trace.DepCausal}}
		}
		tr.Events = append(tr.Events, e)
	}
	return tr
}

func TestDoTraceDiskRoundTrip(t *testing.T) {
	dir := t.TempDir()
	key := Key{Fingerprint: "f00d", Kind: "ideal", Op: OpCapture}
	want := diskTrace()

	// First cache: computes and persists.
	c1 := New(dir)
	got, err := c1.DoTrace(key, func() (*trace.Trace, error) { return want, nil })
	if err != nil {
		t.Fatal(err)
	}
	if got != want {
		t.Fatalf("first flight returned tr=%p, want %p", got, want)
	}
	if _, err := os.Stat(c1.tracePath(key)); err != nil {
		t.Fatalf("trace not persisted: %v", err)
	}
	// No leftover temp files from the write-then-rename dance.
	tmps, _ := filepath.Glob(filepath.Join(dir, "*.tmp"))
	if len(tmps) != 0 {
		t.Fatalf("leftover temp files: %v", tmps)
	}

	// Fresh cache over the same directory: the capture must come off disk,
	// bit-identical, without invoking compute.
	c2 := New(dir)
	loaded, err := c2.DoTrace(key, func() (*trace.Trace, error) {
		t.Error("compute ran despite persisted trace")
		return nil, errors.New("unreachable")
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(loaded, want) {
		t.Fatal("disk round trip altered the trace")
	}
	// Computed or loaded, the published trace names its capture; the file
	// does not store that, so the loader must have written it.
	if got.CaptureKey != "f00d@ideal" || loaded.CaptureKey != "f00d@ideal" {
		t.Fatalf("capture keys: computed %q, loaded %q", got.CaptureKey, loaded.CaptureKey)
	}
	if st := c2.Stats(); st.DiskHits != 1 {
		t.Fatalf("disk hits = %d, want 1", st.DiskHits)
	}

	// Within one cache, the second request is a plain memory hit — the disk
	// is consulted once per process, not per request.
	if _, err := c2.DoTrace(key, nil); err != nil {
		t.Fatal(err)
	}
	if st := c2.Stats(); st.Hits != 1 || st.DiskHits != 1 {
		t.Fatalf("stats after re-request = %+v", st)
	}
}

func TestDoTraceErrorNotPersisted(t *testing.T) {
	dir := t.TempDir()
	c := New(dir)
	key := Key{Fingerprint: "dead", Kind: "ideal", Op: OpCapture}
	boom := errors.New("capture failed")
	if _, err := c.DoTrace(key, func() (*trace.Trace, error) {
		return nil, boom
	}); !errors.Is(err, boom) {
		t.Fatalf("err = %v, want the compute error", err)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Fatalf("failed capture left files behind: %v", ents)
	}
	// The failure is not cached in memory either.
	want := diskTrace()
	got, err := c.DoTrace(key, func() (*trace.Trace, error) { return want, nil })
	if err != nil || got != want {
		t.Fatalf("retry after failure: tr=%p err=%v", got, err)
	}
}

func TestDoTraceUnwritableDirDegradesGracefully(t *testing.T) {
	// A cache directory that cannot be created must not fail the run: the
	// session falls back to in-memory memoization — but the degradation is
	// observable, not silent: DiskErrors counts every failed write.
	bad := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(bad, []byte("not a dir"), 0o644); err != nil {
		t.Fatal(err)
	}
	c := New(filepath.Join(bad, "cache")) // parent is a file: MkdirAll fails
	want := diskTrace()
	got, err := c.DoTrace(Key{Fingerprint: "beef", Kind: "ideal", Op: OpCapture},
		func() (*trace.Trace, error) { return want, nil })
	if err != nil || got != want {
		t.Fatalf("unwritable dir leaked into the result: tr=%p err=%v", got, err)
	}
	if st := c.Stats(); st.Misses != 1 || st.DiskErrors != 1 {
		t.Fatalf("stats = %+v, want 1 miss and 1 disk error", st)
	}
	// The value path degrades the same way, and the counter accumulates.
	v, err := DoValue(c, testKey(99), func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("DoValue under unwritable dir: %v, %v", v, err)
	}
	if st := c.Stats(); st.DiskErrors != 2 {
		t.Fatalf("stats = %+v, want 2 disk errors", st)
	}
	// A memory-only cache must never count disk errors.
	m := New("")
	if _, err := DoValue(m, testKey(1), func() (int, error) { return 1, nil }); err != nil {
		t.Fatal(err)
	}
	if st := m.Stats(); st.DiskErrors != 0 {
		t.Fatalf("memory-only cache counted disk errors: %+v", st)
	}
}

func TestKeyString(t *testing.T) {
	k := Key{Fingerprint: "0123456789abcdef0123", Kind: "optical", Op: OpSCTM, Capture: "aa@ideal"}
	s := k.String()
	if s != "0123456789ab/sctm@optical(cap=aa@ideal)" {
		t.Fatalf("String() = %q", s)
	}
	k.Capture = ""
	if got := k.String(); got != "0123456789ab/sctm@optical" {
		t.Fatalf("String() = %q", got)
	}
}

// Keys shorter than the 12-character abbreviation — above all the zero Key,
// which error paths hand to log formatting before a fingerprint ever
// materialized — must render instead of panicking with a slice range error.
func TestKeyStringShortFingerprint(t *testing.T) {
	cases := []struct {
		key  Key
		want string
	}{
		{Key{}, "/@"},
		{Key{Fingerprint: "abc", Kind: "optical", Op: OpTruth}, "abc/truth@optical"},
		{Key{Fingerprint: "abcdef0123456789", Kind: "ideal", Op: OpCapture}, "abcdef012345/capture@ideal"},
		{Key{Fingerprint: "ff", Kind: "mesh", Op: OpNaive, Capture: "aa@ideal"}, "ff/naive@mesh(cap=aa@ideal)"},
	}
	for _, c := range cases {
		if got := c.key.String(); got != c.want {
			t.Errorf("String(%+v) = %q, want %q", c.key, got, c.want)
		}
	}
}
