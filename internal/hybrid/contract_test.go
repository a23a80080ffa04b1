package hybrid_test

import (
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/fabric/fabrictest"
	"onocsim/internal/hybrid"
)

// The clauses of the fabric contract these tests are named for, on the
// hybrid; internal/fabric holds every variant to all of it.

// A self-message is delivered on the next Tick and stays local even where
// every other pair rides the crossbar.
func TestSelfMessagesStayLocal(t *testing.T) {
	cfg := config.Default()
	n := hybrid.New(16, cfg.Mesh, cfg.Optical, 1)
	fabrictest.SelfMessage(t, n)
	if n.ViaMesh != 2 || n.ViaOptical != 0 {
		t.Fatalf("self-message routing: mesh=%d optical=%d", n.ViaMesh, n.ViaOptical)
	}
}

func TestAllPairsAcrossBothFabrics(t *testing.T) {
	fabrictest.Contract(t, fabrictest.Config(), config.NetHybrid)
}

func TestHybridDeterminism(t *testing.T) {
	fabrictest.Contract(t, fabrictest.Config(), config.NetHybrid, fabrictest.SecondBuild)
}
