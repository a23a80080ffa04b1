package onocsim_test

import (
	"reflect"
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
	"config.Config.System.L1Sets",
	"config.Config.System.L1Ways",
	"config.Config.System.L1LineBytes",
	"config.Config.System.L2SetsPerBank",
	"config.Config.System.L2Ways",
	"config.Config.System.L2HitCycles",
	"config.Config.System.MemCycles",
	"config.Config.System.CtrlBytes",
	"config.Config.System.DataBytes",
	"config.Config.System.MemPorts",
	"config.Config.Mesh.Topology",
	"config.Config.Mesh.VCs",
	"config.Config.Mesh.BufDepth",
	"config.Config.Mesh.FlitBytes",
	"config.Config.Mesh.RouterStages",
	"config.Config.Mesh.LinkCycles",
	"config.Config.Mesh.Routing",
	"config.Config.Mesh.ClockGHz",
	"config.Config.Optical.Architecture",
	"config.Config.Optical.WavelengthsPerChannel",
	"config.Config.Optical.GbpsPerWavelength",
	"config.Config.Optical.ClockGHz",
	"config.Config.Optical.TokenHopCycles",
	"config.Config.Optical.PropagationCyclesAcross",
	"config.Config.Optical.OEOverheadCycles",
	"config.Config.Optical.MaxTokenHold",
	"config.Config.Optical.DieEdgeCm",
	"config.Config.Ideal.LatencyCycles",
	"config.Config.Ideal.BytesPerCycle",
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
	"config.Config.SCTM.InitialLatencyCycles",
	"config.Config.SCTM.Damping",
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
	"experiments.Options.Shards",
	"experiments.Options.Faults.ThermalMTBF",
	"experiments.Options.Faults.ThermalDuration",
	"experiments.Options.Faults.ThermalDetune",
	"experiments.Options.Faults.TokenMTBF",
	"experiments.Options.Faults.TokenTimeout",
	"experiments.Options.Faults.LaserDroopDB",
	"experiments.Options.SeedMode",
	"experiments.Options.Incremental",
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
