package onocsim_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/experiments"
	"onocsim/internal/service"
	"onocsim/internal/sweep"
)

// optionSurface is every independently settable value of the four option
// structs a front end can reach: the leaf fields of the config document and of
// the experiment, sweep and service options (nested structs are walked, so a
// config section counts field by field). Like publicSurface, the rule it pins
// is that growing it is a review decision — each entry is one more
// configuration tests and benchmarks have to cover — so adding an option is an
// edit to this list, and a PR's option count is read off its diff.
var optionSurface = []string{
	"config.Config.Name",
	"config.Config.Seed",
	"config.Config.System.Cores",
	"config.Config.System.L2SetsPerBank",
	"config.Config.System.L2Ways",
	"config.Config.System.MemPorts",
	"config.Config.Mesh.Topology",
	"config.Config.Mesh.VCs",
	"config.Config.Mesh.Routing",
	"config.Config.Optical.Architecture",
	"config.Config.Optical.WavelengthsPerChannel",
	"config.Config.Hybrid.Threshold",
	"config.Config.Workload.Kind",
	"config.Config.Workload.Pattern",
	"config.Config.Workload.InjectionRate",
	"config.Config.Workload.PacketBytes",
	"config.Config.Workload.Packets",
	"config.Config.Workload.Kernel",
	"config.Config.Workload.Scale",
	"config.Config.Workload.Iterations",
	"config.Config.Workload.ComputeScale",
	"config.Config.Workload.Jitter",
	"config.Config.SCTM.MaxIterations",
	"config.Config.SCTM.ToleranceCycles",
	"config.Config.SCTM.MakespanTolerance",
	"config.Config.SCTM.DisableSyncDeps",
	"config.Config.SCTM.DisableCausalDeps",
	"config.Config.SCTM.Seed",
	"config.Config.SCTM.Incremental",
	"config.Config.Network",
	"config.Config.MaxCycles",
	"config.Config.Faults.ThermalMTBF",
	"config.Config.Faults.ThermalDuration",
	"config.Config.Faults.ThermalDetune",
	"config.Config.Faults.TokenMTBF",
	"config.Config.Faults.TokenTimeout",
	"config.Config.Faults.LaserDroopDB",
	"config.Config.Parallelism.Shards",
	"config.Config.Parallelism.WindowEvents",
	"experiments.Options.Seed",
	"experiments.Options.Cores",
	"experiments.Options.Quick",
	"experiments.Options.Session",
	"experiments.Options.Progress",
	"sweep.Options.Session",
	"sweep.Options.Progress",
	"sweep.Options.Sched",
	"service.Config.CacheDir",
	"service.Config.Budget",
	"service.Config.Quick",
}

// leafFields appends the dotted path of every leaf field under typ.
func leafFields(out []string, path string, typ reflect.Type) []string {
	if typ.Kind() != reflect.Struct {
		return append(out, path)
	}
	for i := 0; i < typ.NumField(); i++ {
		f := typ.Field(i)
		out = leafFields(out, path+"."+f.Name, f.Type)
	}
	return out
}

func TestOptionSurface(t *testing.T) {
	var got []string
	got = leafFields(got, "config.Config", reflect.TypeOf(config.Config{}))
	got = leafFields(got, "experiments.Options", reflect.TypeOf(experiments.Options{}))
	got = leafFields(got, "sweep.Options", reflect.TypeOf(sweep.Options{}))
	got = leafFields(got, "service.Config", reflect.TypeOf(service.Config{}))
	if !reflect.DeepEqual(got, optionSurface) {
		t.Errorf("option fields changed\n got: %q\nwant: %q", got, optionSurface)
	}
}

// flagSurface is every command-line flag of every command, as cmd/*/main.go
// defines them with package flag. Same rule as optionSurface: a flag is an
// option with a user-facing name, so a new one is an edit to this list (and a
// removed one shows in the diff as the simplification it is).
var flagSurface = []string{
	"expreport -cachedir",
	"expreport -cores",
	"expreport -cpuprofile",
	"expreport -exp",
	"expreport -format",
	"expreport -list",
	"expreport -memprofile",
	"expreport -progress",
	"expreport -quick",
	"expreport -seed",
	"expreport -sweep",
	"expreport -v",
	"onocsim -config",
	"onocsim -cpuprofile",
	"onocsim -dump-config",
	"onocsim -format",
	"onocsim -memprofile",
	"onocsim -mode",
	"onocsim -network",
	"onocsimd -addr",
	"onocsimd -budget",
	"onocsimd -cachedir",
	"onocsimd -drain",
	"onocsimd -quick",
	"tracegen -bytes",
	"tracegen -capture-on",
	"tracegen -config",
	"tracegen -cores",
	"tracegen -events",
	"tracegen -gap",
	"tracegen -huge",
	"tracegen -json",
	"tracegen -kernel",
	"tracegen -out",
	"tracegen -pattern",
	"traceinfo -v",
	"traceinfo -window",
}

// TestFlagSurface reads the flag definitions out of the commands' source: a
// call flag.T(name, …) or flag.TVar(&v, name, …) whose name is a string
// literal (flag.Parse, flag.Arg and friends take none).
func TestFlagSurface(t *testing.T) {
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("no commands found: %v", err)
	}
	var got []string
	for _, path := range mains {
		file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		cmd := filepath.Base(filepath.Dir(path))
		ast.Inspect(file, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
				return true
			}
			at := 0
			if strings.HasSuffix(sel.Sel.Name, "Var") {
				at = 1
			}
			if len(call.Args) > at {
				if lit, ok := call.Args[at].(*ast.BasicLit); ok && lit.Kind == token.STRING {
					name, _ := strconv.Unquote(lit.Value)
					got = append(got, cmd+" -"+name)
				}
			}
			return true
		})
	}
	sort.Strings(got)
	if !reflect.DeepEqual(got, flagSurface) {
		t.Errorf("%d command-line flags, want %d\n got: %q\nwant: %q", len(got), len(flagSurface), got, flagSurface)
	}
}
