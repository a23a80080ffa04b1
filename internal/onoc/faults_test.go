package onoc

import (
	"testing"

	"onocsim/internal/config"
	"onocsim/internal/noc"
)

func heavyFaults() config.Faults {
	f, err := config.FaultPreset("heavy")
	if err != nil {
		panic(err)
	}
	return f
}

// TestSWMRDroopDerates checks laser droop shrinks the worst-case margin on
// the SWMR crossbar: long lightpaths serialize slower and the counter fires.
func TestSWMRDroopDerates(t *testing.T) {
	f := config.Faults{LaserDroopDB: 12}
	n := NewSWMRWithFaults(16, optCfg(), f, 42)
	clean := NewSWMR(16, optCfg())
	if n.DerateFactor(0, 15) <= 1 {
		t.Skip("12 dB droop leaves all paths within budget for this geometry")
	}
	if got, want := n.ZeroLoadLatency(0, 15, 256), clean.ZeroLoadLatency(0, 15, 256); got <= want {
		t.Errorf("derated zero-load latency %d not above clean %d", got, want)
	}
	n.SetDeliver(func(m *noc.Message) {})
	n.Inject(&noc.Message{ID: 1, Src: 0, Dst: 15, Bytes: 256, Class: noc.ClassRequest})
	for i := 0; i < 10_000 && n.Busy(); i++ {
		n.Tick()
	}
	if n.Stats().Faults.DeratedSends == 0 {
		t.Error("derated send not counted")
	}
}
