package fabric_test

import (
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/fabric"
	"onocsim/internal/fabric/fabrictest"
)

// The noc.Network contract (fabrictest) is checked here, once, on every
// variant Build returns — not only on whichever variants a fabric's own tests
// picked. A new fabric or constructor argument is a new row of variants.

// variant is one fabric configuration under contract.
type variant struct {
	name string
	cfg  config.Config
	kind config.NetworkKind
}

// variants returns the fifteen variants, all on fabrictest.Config: the mesh
// under xy and west-first routing and as a torus, the ideal fabric, both
// crossbars and the hybrid under each fault preset, and MWSR and the hybrid
// under a section intense enough for short runs (the presets' MTBFs are tuned
// for paper-scale ones).
func variants(t *testing.T) []variant {
	base := fabrictest.Config()
	westFirst, torus := base, base
	westFirst.Mesh.Routing = "westfirst"
	torus.Mesh.Topology, torus.Mesh.VCs = "torus", 6
	vs := []variant{
		{"mesh-xy", base, config.NetElectrical},
		{"mesh-westfirst", westFirst, config.NetElectrical},
		{"torus", torus, config.NetElectrical},
		{"ideal", base, config.NetIdeal},
	}
	intense := config.Faults{ThermalMTBF: 300, ThermalDuration: 150, ThermalDetune: 0.75, TokenMTBF: 400, TokenTimeout: 120, LaserDroopDB: 3}
	for _, preset := range []string{"off", "light", "heavy", "intense"} {
		faults := intense
		if preset != "intense" {
			var err error
			if faults, err = config.FaultPreset(preset); err != nil {
				t.Fatal(err)
			}
		}
		for _, arch := range []string{"mwsr", "swmr", "hybrid"} {
			if preset == "intense" && arch == "swmr" {
				continue
			}
			cfg, kind := base, config.NetHybrid
			cfg.Faults = faults
			if arch != "hybrid" {
				cfg.Optical.Architecture, kind = arch, config.NetOptical
			}
			vs = append(vs, variant{arch + "-" + preset, cfg, kind})
		}
	}
	for _, v := range vs {
		if err := v.cfg.Validate(); err != nil {
			t.Fatalf("%s: %v", v.name, err)
		}
	}
	return vs
}

// TestFabricContract holds every variant to all of the contract: every
// source's run to the per-run clauses, to a second build, to ticking every
// cycle and to a rerun after a Reset while busy, and the fault counters to
// the variant's faults.
func TestFabricContract(t *testing.T) {
	for _, v := range variants(t) {
		t.Run(v.name, func(t *testing.T) {
			t.Parallel()
			fabrictest.Contract(t, v.cfg, v.kind, fabrictest.SecondBuild, fabrictest.TickEveryCycle, fabrictest.ResetWhileBusy)
		})
	}
}

// TestFabricAdmissionContract holds every variant to the clauses of Inject
// that have nothing to do with what makes fabrics differ.
func TestFabricAdmissionContract(t *testing.T) {
	for _, v := range variants(t) {
		t.Run(v.name, func(t *testing.T) {
			net, err := fabric.Build(v.cfg, v.kind)
			if err != nil {
				t.Fatal(err)
			}
			fabrictest.Endpoints(t, net)
			fabrictest.SelfMessage(t, net)
		})
	}
}
