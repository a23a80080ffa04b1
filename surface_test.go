package onocsim

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"reflect"
	"sort"
	"strings"
	"testing"

	"onocsim/internal/config"
)

// publicSurface is every exported function of the package and every exported
// method of Session. The rule it pins (DESIGN.md, "Public surface"): one
// context-first Session method per operation and nothing beside it — no
// no-ctx wrapper, no package-level twin, no second name. The three
// package-level leaves exist because bench/ compiles against them. A new
// entry here is an API decision; make it in review, not by accretion.
var publicSurface = []string{
	"BuildNetwork",
	"CaptureTraceContext",
	"Compare",
	"DefaultConfig",
	"LoadConfig",
	"NetworkFactory",
	"NewSession",
	"NewSlotScheduler",
	"OpenTraceFile",
	"RunExecutionDrivenContext",
	"RunNaiveReplaySummaryContext",
	"SaveTrace",
	"SelfCorrectionKey",
	"Session.CacheStats",
	"Session.CaptureTraceContext",
	"Session.Estimate",
	"Session.RunCoupledReplayContext",
	"Session.RunExecutionDrivenContext",
	"Session.RunNaiveReplayContext",
	"Session.RunSelfCorrectionContext",
	"Session.RunStudyContext",
	"Session.RunSyntheticLoadContext",
	"Session.SetProgress",
	"StaticPowerMW",
	"ValidateNetworkKind",
}

func TestPublicSurface(t *testing.T) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	var files []*ast.File
	for _, f := range pkgs["onocsim"].Files {
		files = append(files, f)
	}
	pkg, err := doc.NewFromFiles(fset, files, "onocsim")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, f := range pkg.Funcs {
		got = append(got, f.Name)
	}
	for _, typ := range pkg.Types {
		// go/doc files a constructor under the type it returns.
		for _, f := range typ.Funcs {
			got = append(got, f.Name)
		}
		if typ.Name == "Session" {
			for _, m := range typ.Methods {
				got = append(got, "Session."+m.Name)
			}
		}
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, publicSurface) {
		t.Errorf("exported functions and Session methods changed\n got: %q\nwant: %q", got, publicSurface)
	}
}

// TestFabricContractSurface pins the method set every fabric implements. Like
// the public surface above, growing it is a review decision: each method here
// is one more thing five fabrics (and the next one) must get right.
func TestFabricContractSurface(t *testing.T) {
	want := []string{"Inject", "NextWake", "Nodes", "Now", "PowerReport", "SetDeliver", "SkipTo", "Stats", "Tick", "ZeroLoadLatency"}
	typ := reflect.TypeOf((*Network)(nil)).Elem()
	var got []string
	for i := 0; i < typ.NumMethod(); i++ {
		got = append(got, typ.Method(i).Name)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("noc.Network method set changed\n got: %q\nwant: %q", got, want)
	}
}

// TestNilSessionMatchesFreshSession: a nil *Session runs every operation
// uncached and a fresh session computes it on its first request, so the two
// agree exactly — DeepEqual on whole results, the capture key a session's
// trace carries (where it came from, not what it holds) aside.
func TestNilSessionMatchesFreshSession(t *testing.T) {
	cfg := smallConfig()
	synthetic := smallConfig()
	synthetic.Workload = config.Workload{
		Kind: config.WorkloadSynthetic, Pattern: "uniform", InjectionRate: 0.1,
		PacketBytes: 64, Packets: 50, Kernel: "stencil", Scale: 1, Iterations: 1, ComputeScale: 1,
	}
	capture := func(t *testing.T, s *Session) *Trace {
		t.Helper()
		tr, _, err := s.CaptureTraceContext(bg, cfg, IdealNet)
		if err != nil {
			t.Fatalf("capture: %v", err)
		}
		return tr
	}
	for _, op := range []struct {
		name string
		run  func(t *testing.T, s *Session) (any, error)
	}{
		{"RunExecutionDrivenContext", func(t *testing.T, s *Session) (any, error) {
			return s.RunExecutionDrivenContext(bg, cfg, Optical)
		}},
		{"CaptureTraceContext", func(t *testing.T, s *Session) (any, error) {
			tr := *capture(t, s)
			tr.CaptureKey = ""
			return &tr, nil
		}},
		{"RunNaiveReplayContext", func(t *testing.T, s *Session) (any, error) {
			res, err := s.RunNaiveReplayContext(bg, cfg, capture(t, s), Optical)
			return res, err
		}},
		{"RunCoupledReplayContext", func(t *testing.T, s *Session) (any, error) {
			res, err := s.RunCoupledReplayContext(bg, cfg, capture(t, s), Optical)
			return res, err
		}},
		{"RunSelfCorrectionContext", func(t *testing.T, s *Session) (any, error) {
			res, err := s.RunSelfCorrectionContext(bg, cfg, capture(t, s), Optical)
			return res, err
		}},
		{"RunSelfCorrectionContext(file)", func(t *testing.T, s *Session) (any, error) {
			res, err := s.RunSelfCorrectionContext(bg, cfg, traceOnDisk(t, capture(t, s)), Optical)
			return res, err
		}},
		{"Estimate", func(t *testing.T, s *Session) (any, error) {
			res, err := s.Estimate(cfg, capture(t, s), Optical)
			return res, err
		}},
		{"RunSyntheticLoadContext", func(t *testing.T, s *Session) (any, error) {
			return s.RunSyntheticLoadContext(bg, synthetic, Electrical)
		}},
		{"RunStudyContext", func(t *testing.T, s *Session) (any, error) {
			st, err := s.RunStudyContext(bg, cfg, Optical)
			if err != nil {
				return nil, err
			}
			tr := *st.Trace
			tr.CaptureKey = ""
			st.Trace = &tr
			return st, nil
		}},
	} {
		op := op
		t.Run(op.name, func(t *testing.T) {
			t.Parallel()
			want, err := op.run(t, nil)
			if err != nil {
				t.Fatalf("nil session: %v", err)
			}
			s := NewSession("")
			got, err := op.run(t, s)
			if err != nil {
				t.Fatalf("fresh session: %v", err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("fresh session diverges from the nil session\n got: %+v\nwant: %+v", got, want)
			}
			if s.CacheStats().Misses < 1 {
				t.Errorf("fresh session computed nothing: %+v", s.CacheStats())
			}
			// Asked again, the session answers from its cache with the same value.
			again, err := op.run(t, s)
			if err != nil || !reflect.DeepEqual(again, want) {
				t.Errorf("cached answer diverges (err %v)\n got: %+v\nwant: %+v", err, again, want)
			}
			if s.CacheStats().Hits < 1 {
				t.Errorf("second request was not a cache hit: %+v", s.CacheStats())
			}
		})
	}
}
