package noc_test

import (
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/fabric/fabrictest"
	"onocsim/internal/noc"
)

// The clauses of the fabric contract these tests are named for, on the ideal
// fabric; internal/fabric holds every variant to all of it.

func TestIdealSelfMessage(t *testing.T) {
	fabrictest.SelfMessage(t, noc.NewIdeal(16, 10, 0))
}

func TestIdealDeliveryOrderDeterministic(t *testing.T) {
	fabrictest.Contract(t, fabrictest.Config(), config.NetIdeal, fabrictest.SecondBuild)
}

func TestIdealPanicsOnBadEndpoints(t *testing.T) {
	fabrictest.Endpoints(t, noc.NewIdeal(16, 5, 0))
}
