package enoc_test

import (
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/enoc"
	"onocsim/internal/fabric/fabrictest"
)

// The clauses of the fabric contract these tests are named for, on the mesh;
// internal/fabric holds every variant to all of it.

func mesh(routing, topology string) config.Config {
	cfg := fabrictest.Config()
	cfg.Mesh.Routing, cfg.Mesh.Topology = routing, topology
	if topology == "torus" {
		cfg.Mesh.VCs = 6
	}
	return cfg
}

func TestAllPairsDelivery(t *testing.T) {
	for _, routing := range []string{"xy", "westfirst"} {
		t.Run(routing, func(t *testing.T) { fabrictest.Contract(t, mesh(routing, "mesh"), config.NetElectrical) })
	}
}

func TestDeterminism(t *testing.T) {
	fabrictest.Contract(t, mesh("xy", "mesh"), config.NetElectrical, fabrictest.SecondBuild)
}

// The mesh skips only when drained or holding self-messages alone, so this
// holds a SkipTo over idle cycles to ticking each of them.
func TestSkipEquivalence(t *testing.T) {
	fabrictest.Contract(t, mesh("xy", "mesh"), config.NetElectrical, fabrictest.TickEveryCycle)
}

func TestSelfMessageBypassesFabric(t *testing.T) {
	fabrictest.SelfMessage(t, enoc.New(16, config.Default().Mesh))
}

func TestTorusAllPairsDelivery(t *testing.T) {
	fabrictest.Contract(t, mesh("xy", "torus"), config.NetElectrical)
}

func TestTorusDeterminism(t *testing.T) {
	fabrictest.Contract(t, mesh("xy", "torus"), config.NetElectrical, fabrictest.SecondBuild)
}
