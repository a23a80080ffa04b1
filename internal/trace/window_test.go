package trace

import (
	"reflect"
	"strings"
	"testing"

	"onocsim/internal/noc"
	"onocsim/internal/sim"
)

// checkAnalysisMatchesInMemory asserts StreamAnalyze reproduces the in-memory
// quartet exactly.
func checkAnalysisMatchesInMemory(t *testing.T, tr *Trace, opts StreamOptions) *Analysis {
	t.Helper()
	an, err := StreamAnalyze(tr, opts)
	if err != nil {
		t.Fatal(err)
	}
	if want := tr.ComputeStats(); an.Stats != want {
		t.Fatalf("Stats %+v, want %+v", an.Stats, want)
	}
	cp, err := tr.CriticalPathReference()
	if err != nil {
		t.Fatal(err)
	}
	if an.CriticalPath.Length != cp.Length {
		t.Fatalf("CriticalPath.Length %d, want %d", an.CriticalPath.Length, cp.Length)
	}
	if opts.Paths {
		if !reflect.DeepEqual(an.CriticalPath.Events, cp.Events) {
			t.Fatalf("CriticalPath.Events %v, want %v", an.CriticalPath.Events, cp.Events)
		}
	} else if an.CriticalPath.Events != nil {
		t.Fatal("CriticalPath.Events populated without Paths")
	}
	if len(tr.Events) > 0 && an.CriticalPathEvents != len(cp.Events) {
		t.Fatalf("CriticalPathEvents %d, want %d", an.CriticalPathEvents, len(cp.Events))
	}
	if want := tr.DepthHistogram(); !reflect.DeepEqual(an.DepthHist, want) {
		t.Fatalf("DepthHist %v, want %v", an.DepthHist, want)
	}
	sends, recvs := tr.NodeActivity()
	if !reflect.DeepEqual(an.Sends, sends) || !reflect.DeepEqual(an.Recvs, recvs) {
		t.Fatalf("activity (%v, %v), want (%v, %v)", an.Sends, an.Recvs, sends, recvs)
	}
	return an
}

func TestStreamAnalyzeMatchesInMemory(t *testing.T) {
	for _, paths := range []bool{false, true} {
		checkAnalysisMatchesInMemory(t, tinyTrace(), StreamOptions{Paths: paths})
		for seed := uint64(1); seed <= 5; seed++ {
			checkAnalysisMatchesInMemory(t, randomStreamTrace(seed, 300, 8), StreamOptions{Paths: paths})
		}
	}
}

func TestStreamAnalyzeFromFile(t *testing.T) {
	tr := randomStreamTrace(42, 200, 8)
	src, err := NewFileSource(writeTempTrace(t, tr))
	if err != nil {
		t.Fatal(err)
	}
	got, err := StreamAnalyze(src, StreamOptions{Paths: true})
	if err != nil {
		t.Fatal(err)
	}
	want := checkAnalysisMatchesInMemory(t, tr, StreamOptions{Paths: true})
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("file analysis diverges from mem analysis:\n got %+v\nwant %+v", got, want)
	}
}

func TestStreamAnalyzeEmptyTrace(t *testing.T) {
	tr := &Trace{Nodes: 3, Workload: "empty"}
	an := checkAnalysisMatchesInMemory(t, tr, StreamOptions{Paths: true})
	if an.CriticalPathEvents != 0 || an.MaxDepSpan != 0 {
		t.Fatalf("empty trace produced %+v", an)
	}
}

// chainTrace builds a single-source causal chain where each event depends on
// the event `span` places earlier (or the immediately preceding event when
// span ≤ 1).
func chainTrace(n, span int) *Trace {
	tr := &Trace{Nodes: 2, Workload: "chain", RefMakespan: sim.Tick(10 * n)}
	for i := 0; i < n; i++ {
		e := Event{
			ID: EventID(i + 1), Src: 0, Dst: 1, Bytes: 8,
			Class: noc.ClassRequest, Kind: KindData,
			Gap: 1, RefInject: sim.Tick(2 * i), RefArrive: sim.Tick(2*i + 5),
		}
		if di := i - span; di >= 0 {
			e.Deps = []Dep{{On: EventID(di + 1), Class: DepProgram}}
		} else if i > 0 {
			e.Deps = []Dep{{On: EventID(i), Class: DepProgram}}
		}
		tr.Events = append(tr.Events, e)
	}
	return tr
}

func TestStreamAnalyzeSingleSourceChain(t *testing.T) {
	an := checkAnalysisMatchesInMemory(t, chainTrace(50, 1), StreamOptions{Paths: true})
	if an.MaxDepSpan != 1 {
		t.Fatalf("MaxDepSpan = %d, want 1", an.MaxDepSpan)
	}
	if an.CriticalPathEvents != 50 {
		t.Fatalf("chain critical path has %d events, want 50", an.CriticalPathEvents)
	}
}

func TestStreamAnalyzeWindowSmallerThanSpanErrors(t *testing.T) {
	// An edge spanning 10 events under a window of 4 must fail loudly (no
	// deadlock, no wrong numbers) and name the window that would work.
	tr := chainTrace(20, 10)
	_, err := StreamAnalyze(tr, StreamOptions{Window: 4})
	if err == nil {
		t.Fatal("undersized window accepted")
	}
	msg := err.Error()
	if !strings.Contains(msg, "window of at least 10") {
		t.Fatalf("error %q does not name the required window", msg)
	}
}

func TestStreamAnalyzeWindowExactlySpan(t *testing.T) {
	// A window equal to the longest span is sufficient.
	tr := chainTrace(20, 10)
	an, err := StreamAnalyze(tr, StreamOptions{Window: 10})
	if err != nil {
		t.Fatal(err)
	}
	if an.MaxDepSpan != 10 {
		t.Fatalf("MaxDepSpan = %d, want 10", an.MaxDepSpan)
	}
	checkAnalysisMatchesInMemory(t, tr, StreamOptions{Window: 10})
}

func TestStreamAnalyzeRingGrowsPastInitialSize(t *testing.T) {
	// Spans beyond the initial 1024-slot ring but within the window must
	// trigger growth, not retirement: results stay exact.
	tr := chainTrace(3000, 2500)
	an := checkAnalysisMatchesInMemory(t, tr, StreamOptions{})
	if an.MaxDepSpan != 2500 {
		t.Fatalf("MaxDepSpan = %d, want 2500", an.MaxDepSpan)
	}
}

func TestStreamAnalyzeUnbounded(t *testing.T) {
	// Unbounded disables retirement entirely: a span of n-1 is fine.
	tr := chainTrace(1500, 1499)
	an, err := StreamAnalyze(tr, StreamOptions{Window: Unbounded})
	if err != nil {
		t.Fatal(err)
	}
	if an.MaxDepSpan != 1499 {
		t.Fatalf("MaxDepSpan = %d, want 1499", an.MaxDepSpan)
	}
	// ...while a bounded window of the same trace errors.
	if _, err := StreamAnalyze(tr, StreamOptions{Window: 100}); err == nil {
		t.Fatal("bounded window accepted span beyond it")
	}
}

func TestSpanWindowRetirementBoundary(t *testing.T) {
	// Boundary check on the ring itself, with a horizon past the initial
	// 1024-slot allocation so both growth steps and steady-state retirement
	// are crossed: after every add, a span of exactly H is served with the
	// value written H adds ago, and H+1 errors.
	const H = 2048
	w := newSpanWindow(H)
	for i := 0; i < 3*H; i++ {
		s := w.add()
		s.finish = sim.Tick(i)
		lo := i + 1 - H
		if lo < 0 {
			lo = 0
		}
		for _, j := range []int{lo, (lo + i) / 2, i} {
			got, err := w.get(j)
			if err != nil {
				t.Fatalf("add %d: get(%d) errored: %v", i, j, err)
			}
			if got.finish != sim.Tick(j) {
				t.Fatalf("add %d: get(%d) = %d, want %d (retired or misplaced)", i, j, got.finish, j)
			}
		}
		if lo > 0 {
			if _, err := w.get(lo - 1); err == nil {
				t.Fatalf("add %d: span %d beyond horizon served", i, H+1)
			}
		}
	}
}
