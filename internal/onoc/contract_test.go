package onoc_test

import (
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/fabric/fabrictest"
	"onocsim/internal/onoc"
)

// The clauses of the fabric contract these tests are named for, on both
// crossbars; internal/fabric holds every variant to all of it.

func crossbar(arch, faults string) config.Config {
	cfg := fabrictest.Config()
	cfg.Optical.Architecture = arch
	var err error
	if cfg.Faults, err = config.FaultPreset(faults); err != nil {
		panic(err)
	}
	return cfg
}

func TestAllPairsDelivery(t *testing.T) {
	fabrictest.Contract(t, crossbar("mwsr", "off"), config.NetOptical)
}

func TestDeterminism(t *testing.T) {
	fabrictest.Contract(t, crossbar("mwsr", "off"), config.NetOptical, fabrictest.SecondBuild)
}

func TestSelfMessage(t *testing.T) {
	fabrictest.SelfMessage(t, onoc.New(16, config.Default().Optical))
}

func TestSWMRAllPairs(t *testing.T) {
	fabrictest.Contract(t, crossbar("swmr", "off"), config.NetOptical)
}

func TestSWMRDeterminism(t *testing.T) {
	fabrictest.Contract(t, crossbar("swmr", "off"), config.NetOptical, fabrictest.SecondBuild)
}

func TestSWMRSelfMessage(t *testing.T) {
	fabrictest.SelfMessage(t, onoc.NewSWMR(16, config.Default().Optical))
}

// The heavy preset's faults are counted (Contract checks), and both ways of
// running the same traffic see the identical fault schedule.
func TestFaultedSkipEquivalence(t *testing.T) {
	fabrictest.Contract(t, crossbar("mwsr", "heavy"), config.NetOptical, fabrictest.TickEveryCycle)
}

func TestFaultedResetDeterminism(t *testing.T) {
	fabrictest.Contract(t, crossbar("mwsr", "heavy"), config.NetOptical, fabrictest.ResetWhileBusy)
}

// NewWithFaults under a zero section holds to what the two tests above check,
// and counts no faults.
func TestFaultFreePathUnchanged(t *testing.T) {
	fabrictest.Contract(t, crossbar("mwsr", "off"), config.NetOptical, fabrictest.TickEveryCycle, fabrictest.ResetWhileBusy)
}
