package onocsim

import (
	"go/ast"
	"go/doc"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
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

// The three allowlists of TestInternalExportSurface, each name → why it stays
// exported without a product caller. A name is its package's path below
// internal/ and the identifier: "core.Schedule", "fabric.Build".
var (
	// benchOnly: names only bench/ references, test files included. bench/
	// compiles against them and changes only with the benchmark; ROADMAP
	// item 14 empties this list, each name it deletes a line removed here.
	benchOnly = map[string]string{
		"analytic.Seed":               "bench/'s correction probe seeds from it, behind a seed Validate refuses",
		"core.NaiveReplay":            "bench/'s naive-replay probe; the product replays through NaiveReplayStream",
		"core.NaiveReplaySharded":     "bench/spy_test.go holds the fabric decorator to it; the count is ignored",
		"core.ReplaySchedule":         "bench/'s in-memory replay probe",
		"core.ReplayScheduleSharded":  "bench/'s K = 2 shard probe, a serial replay now that the count is ignored",
		"core.ReplayScheduleStream":   "bench/'s streamed replay probe",
		"core.Schedule":               "bench/'s schedule probe; a one-line adapter over ScheduleStream",
		"core.SelfCorrect":            "bench/'s correction probes and spy_test.go; the product calls Correct",
		"core.SelfCorrectParkableCtx": "bench/'s twin of a job's correction",
		"core.SelfCorrectStream":      "bench/'s streamed-correction twin",
		"noc.ScheduleShardable":       "bench/spy.go forwards it; no fabric implements it, a replay runs on one fabric",
		"noc.SeqOrder":                "bench/spy.go forwards it through ScheduleShardable",
		"noc.ShardObsFunc":            "bench/spy.go forwards it through ScheduleShardable",
		"noc.SkipIdle":                "bench/'s tick probe",
		"sim.NewEngine":               "bench/'s engine probe; no product code runs sim.Engine",
		"sweep.Expand":                "bench/ times grid expansion apart from sweep.Run",
		"sweep.Front":                 "bench/ times the Pareto front apart from sweep.Run",
		"trace.NewMemSource":          "bench/'s streamed replay probe; it returns its argument",
	}
	// testOnly: names only tests call.
	testOnly = map[string]string{
		"config.MaxCores":    "FuzzConfig seeds a document at the validated core limit",
		"sim.NewRNG":         "tests seed a generator directly; the product derives labelled streams (NewStream)",
		"trace.LoadFile":     "tests read a written trace back whole; the product streams a file (NewFileSource)",
		"workload.WriteHuge": "FuzzConfig generates a trace in memory; the product writes files (WriteHugeFile)",
	}
	// modelConstants: the constants of DESIGN §12's "Model constants" table
	// that no other package reads. The table documents them by their
	// exported names; each reason is the table's.
	modelConstants = map[string]string{
		"cpu.L1Sets":                   "no study varies the private L1",
		"cpu.L1Ways":                   "no study varies the private L1",
		"cpu.L2HitCycles":              "R17 varies the memory regime, not the latencies",
		"cpu.MemCycles":                "R17 varies the memory regime, not the latencies",
		"cpu.CtrlBytes":                "one of the protocol's two message sizes",
		"cpu.DataBytes":                "one of the protocol's two message sizes",
		"enoc.FlitBytes":               "the mesh's link width",
		"enoc.BufDepth":                "swept only by the mesh's differential test",
		"enoc.RouterStages":            "R15 varies topology, routing and VCs, not the pipeline",
		"enoc.LinkCycles":              "swept only by the mesh's differential test",
		"enoc.ClockGHz":                "the mesh's PowerReport clock",
		"onoc.ClockGHz":                "the crossbars' PowerReport clock",
		"onoc.GbpsPerWavelength":       "the sweep's wavelengths axis already varies channel capacity",
		"onoc.TokenHopCycles":          "swept only by the crossbar's differential test",
		"onoc.MaxTokenHold":            "swept only by the crossbar's differential test",
		"onoc.PropagationCyclesAcross": "device and die geometry",
		"onoc.OEOverheadCycles":        "device and die geometry",
		"onoc.DieEdgeCm":               "device and die geometry",
		"fabric.IdealLatencyCycles":    "R10 varies which fabric captures, not its parameters",
		"fabric.IdealBytesPerCycle":    "R10 varies which fabric captures, not its parameters",
	}
)

// TestInternalExportSurface pins the rule that an exported package-level
// name in internal/ has a product caller: some non-test file outside its
// package (the root package, cmd/, examples/ or another internal package)
// names it. Exempt are a type named in the signature, fields or methods of a
// used name and the constants of such a type (an enum's values go with it), a
// func its own package stores as a value (the experiment registry's
// R-functions), internal/fabric/fabrictest (it exists to serve tests), and the
// three allowlists above, each entry of which must still qualify.
func TestInternalExportSurface(t *testing.T) {
	var files []srcFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, 0)
		if err != nil {
			return err
		}
		files = append(files, srcFile{filepath.ToSlash(p), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, problem := range checkInternalExports("onocsim", files, exportAllow{benchOnly, testOnly, modelConstants}) {
		t.Error(problem)
	}

	t.Run("Fixture", func(t *testing.T) {
		fixture := map[string]string{
			"internal/a/a.go": `package a
var Registry = []func(){Stored}
type Param struct{}
type Result struct{ In Param }
type Kind int
const (
	KindA Kind = iota
	KindB
)
func Stored() {}
func Used(p Param, k Kind) Result { return Result{In: p} }
func Unused() {}
func TestHelper() {}
func BenchHelper() {}
const Model = 1`,
			"internal/a/a_test.go": `package a
import "testing"
func TestA(t *testing.T) { TestHelper() }`,
			"internal/b/b.go": `package b
import "m/internal/a"
var _ = a.Used
var _ = a.Registry`,
			"bench/main.go": `package main
import "m/internal/a"
func main() { a.BenchHelper() }`,
		}
		var files []srcFile
		fset := token.NewFileSet()
		for p, src := range fixture {
			f, err := parser.ParseFile(fset, p, src, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, srcFile{p, f})
		}
		verdicts := func(allow exportAllow) map[string]bool {
			failed := map[string]bool{}
			for _, problem := range checkInternalExports("m", files, allow) {
				failed[strings.Fields(problem)[0]] = true
			}
			return failed
		}
		allow := exportAllow{
			benchOnly:      map[string]string{"a.BenchHelper": "bench"},
			testOnly:       map[string]string{"a.TestHelper": "test"},
			modelConstants: map[string]string{"a.Model": "model"},
		}
		for _, c := range []struct {
			name   string
			allow  exportAllow
			failed []string
		}{
			{"allowlisted", allow, []string{"a.Unused"}},
			{"test-only unlisted", exportAllow{allow.benchOnly, nil, allow.modelConstants}, []string{"a.TestHelper", "a.Unused"}},
			{"stale benchOnly", exportAllow{map[string]string{"a.BenchHelper": "bench", "a.Unused": "stale"}, allow.testOnly, allow.modelConstants}, []string{"a.Unused"}},
			{"stale testOnly", exportAllow{allow.benchOnly, map[string]string{"a.TestHelper": "test", "a.BenchHelper": "stale"}, allow.modelConstants}, []string{"a.BenchHelper", "a.Unused"}},
			{"listed but used", exportAllow{map[string]string{"a.BenchHelper": "bench", "a.Used": "stale"}, allow.testOnly, allow.modelConstants}, []string{"a.Unused", "a.Used"}},
			{"no such name", exportAllow{allow.benchOnly, map[string]string{"a.TestHelper": "test", "a.Gone": "stale"}, allow.modelConstants}, []string{"a.Gone", "a.Unused"}},
		} {
			var got []string
			for name := range verdicts(c.allow) {
				got = append(got, name)
			}
			sort.Strings(got)
			if !reflect.DeepEqual(got, c.failed) {
				t.Errorf("%s: failed names %q, want %q", c.name, got, c.failed)
			}
		}
	})
}

// srcFile is one parsed Go file of the module, named by its slash-separated
// path from the module root.
type srcFile struct {
	path string
	file *ast.File
}

// exportAllow holds the allowlists checkInternalExports honours.
type exportAllow struct {
	benchOnly, testOnly, modelConstants map[string]string
}

// exportDecl is one exported package-level name under internal/.
type exportDecl struct {
	kind    string // func, type, const or var
	dir     string // the package's directory
	imports map[string]string
	// sig holds the expressions whose type names a use of this name makes
	// its callers see: a func's signature, a type's definition and its
	// exported methods' signatures, a value's declared type.
	sig []ast.Node
}

// checkInternalExports applies TestInternalExportSurface's rule to files, the
// module's Go files, test files and bench/ included. It returns one problem
// per line, each starting with the name it is about.
func checkInternalExports(module string, files []srcFile, allow exportAllow) []string {
	key := func(dir, name string) string { return strings.TrimPrefix(dir, "internal/") + "." + name }
	checked := func(dir string) bool {
		return strings.HasPrefix(dir, "internal/") && dir != "internal/fabric/fabrictest"
	}
	decls := map[string]*exportDecl{}
	methods := map[string][]ast.Node{}
	importsOf := func(f *ast.File) map[string]string {
		m := map[string]string{}
		for _, spec := range f.Imports {
			p := strings.Trim(spec.Path.Value, `"`)
			if !strings.HasPrefix(p, module+"/") {
				continue
			}
			dir := strings.TrimPrefix(p, module+"/")
			name := path.Base(dir)
			if spec.Name != nil {
				name = spec.Name.Name
			}
			m[name] = dir
		}
		return m
	}
	for _, sf := range files {
		dir := path.Dir(sf.path)
		if strings.HasSuffix(sf.path, "_test.go") || !checked(dir) {
			continue
		}
		imports := importsOf(sf.file)
		add := func(kind string, id *ast.Ident, sig ...ast.Node) {
			if id.IsExported() {
				decls[key(dir, id.Name)] = &exportDecl{kind, dir, imports, sig}
			}
		}
		for _, d := range sf.file.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					add("func", d.Name, d.Type)
					continue
				}
				recv := d.Recv.List[0].Type
				if star, ok := recv.(*ast.StarExpr); ok {
					recv = star.X
				}
				switch generic := recv.(type) {
				case *ast.IndexExpr:
					recv = generic.X
				case *ast.IndexListExpr:
					recv = generic.X
				}
				if id, ok := recv.(*ast.Ident); ok && d.Name.IsExported() {
					methods[key(dir, id.Name)] = append(methods[key(dir, id.Name)], d.Type)
				}
			case *ast.GenDecl:
				var implicit ast.Expr // a const spec without values repeats the type above
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						add("type", s.Name, s.Type)
					case *ast.ValueSpec:
						typ := s.Type
						if d.Tok == token.CONST {
							if typ == nil && len(s.Values) == 0 {
								typ = implicit
							}
							implicit = typ
						}
						for _, id := range s.Names {
							if typ == nil {
								add(d.Tok.String(), id)
							} else {
								add(d.Tok.String(), id, typ)
							}
						}
					}
				}
			}
		}
	}
	for k, m := range methods {
		if d := decls[k]; d != nil {
			d.sig = append(d.sig, m...)
		}
	}

	// Who names each declaration: product code in another package, bench/,
	// or tests. A non-test file of the declaring package that mentions a
	// func other than by calling it stores it as a value.
	product, bench, tests := map[string]bool{}, map[string]bool{}, map[string]bool{}
	for _, sf := range files {
		dir := path.Dir(sf.path)
		isTest := strings.HasSuffix(sf.path, "_test.go") || dir == "internal/fabric/fabrictest"
		imports := importsOf(sf.file)
		// notValue marks identifiers that are not a func's value: a call's
		// callee, a declared or field name, a selector's or a literal key.
		notValue := map[*ast.Ident]bool{}
		ast.Inspect(sf.file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if id, ok := n.Fun.(*ast.Ident); ok {
					notValue[id] = true
				}
			case *ast.FuncDecl:
				notValue[n.Name] = true
			case *ast.Field:
				for _, id := range n.Names {
					notValue[id] = true
				}
			case *ast.KeyValueExpr:
				if id, ok := n.Key.(*ast.Ident); ok {
					notValue[id] = true
				}
			case *ast.SelectorExpr:
				x, ok := n.X.(*ast.Ident)
				if !ok || x.Obj != nil || imports[x.Name] == "" {
					notValue[n.Sel] = true
					return true
				}
				k := key(imports[x.Name], n.Sel.Name)
				switch {
				case dir == "bench" || strings.HasPrefix(dir, "bench/"):
					bench[k] = true
				case isTest:
					tests[k] = true
				case imports[x.Name] != dir:
					product[k] = true
				}
				return false
			case *ast.Ident:
				d := decls[key(dir, n.Name)]
				if d == nil {
					return true
				}
				if isTest {
					tests[key(dir, n.Name)] = true
				} else if d.kind == "func" && !notValue[n] {
					product[key(dir, n.Name)] = true
				}
			}
			return true
		})
	}

	// A type named in what a used or allowlisted name shows its callers is
	// used through it.
	reached := map[string]bool{}
	var visit func(k string)
	visit = func(k string) {
		d := decls[k]
		if d == nil || reached[k] {
			return
		}
		reached[k] = true
		var names func(n ast.Node) bool
		names = func(n ast.Node) bool {
			var fields *ast.FieldList
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if x, ok := n.X.(*ast.Ident); ok && d.imports[x.Name] != "" {
					visit(key(d.imports[x.Name], n.Sel.Name))
				}
				return false
			case *ast.Ident:
				visit(key(d.dir, n.Name))
				return false
			case *ast.StructType:
				fields = n.Fields
			case *ast.InterfaceType:
				fields = n.Methods
			default:
				return true
			}
			// An unexported field or method is its package's own business.
			for _, f := range fields.List {
				if len(f.Names) == 0 || f.Names[0].IsExported() {
					ast.Inspect(f.Type, names)
				}
			}
			return false
		}
		for _, n := range d.sig {
			ast.Inspect(n, names)
		}
	}
	lists := []struct {
		name    string
		entries map[string]string
		holds   func(k string) bool
	}{
		{"benchOnly", allow.benchOnly, func(k string) bool { return bench[k] }},
		{"testOnly", allow.testOnly, func(k string) bool { return tests[k] }},
		{"modelConstants", allow.modelConstants, func(k string) bool { return decls[k].kind == "const" }},
	}
	for k := range product {
		visit(k)
	}
	for _, l := range lists {
		for k := range l.entries {
			visit(k)
		}
	}

	var problems []string
	for _, l := range lists {
		for k, reason := range l.entries {
			switch {
			case decls[k] == nil:
				problems = append(problems, k+" is listed in "+l.name+" but not declared")
			case product[k]:
				problems = append(problems, k+" is listed in "+l.name+" but has a product caller")
			case !l.holds(k):
				problems = append(problems, k+" is listed in "+l.name+" but no longer qualifies")
			case strings.TrimSpace(reason) == "":
				problems = append(problems, k+" is listed in "+l.name+" without a reason")
			}
		}
	}
	for k, d := range decls {
		if reached[k] {
			continue
		}
		// An enum's values go with their type.
		if d.kind == "const" && len(d.sig) == 1 {
			if id, ok := d.sig[0].(*ast.Ident); ok && reached[key(d.dir, id.Name)] {
				continue
			}
		}
		where := "nothing names it"
		switch {
		case bench[k]:
			where = "only bench/ names it"
		case tests[k]:
			where = "only tests name it"
		}
		problems = append(problems, k+" has no product caller: "+where)
	}
	sort.Strings(problems)
	return problems
}
