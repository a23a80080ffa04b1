package onocsim

import (
	"testing"

	"onocsim/internal/fabric/fabrictest"
)

// What BuildNetwork returns, on the smoke config, is held to the clauses of
// the fabric contract these tests are named for; internal/fabric holds every
// variant to all of it.

// TestSkipEquivalence: fast-forwarding through NextWake/SkipTo reproduces
// ticking every cycle exactly, also across long idle stretches.
func TestSkipEquivalence(t *testing.T) {
	for _, kind := range []NetworkKind{IdealNet, Electrical, Optical, Hybrid} {
		t.Run(string(kind), func(t *testing.T) {
			fabrictest.Contract(t, smallConfig(), kind, fabrictest.TickEveryCycle)
		})
	}
}

// TestResettableRoundTrip: a fabric Reset while busy reruns like a fresh one.
func TestResettableRoundTrip(t *testing.T) {
	for _, kind := range []NetworkKind{IdealNet, Electrical, Optical, Hybrid} {
		t.Run(string(kind), func(t *testing.T) {
			fabrictest.Contract(t, smallConfig(), kind, fabrictest.ResetWhileBusy)
		})
	}
}

// TestFabricAdmissionContract: endpoints outside [0, Nodes) panic, and a
// self-message is delivered on the next Tick.
func TestFabricAdmissionContract(t *testing.T) {
	swmr := smallConfig()
	swmr.Optical.Architecture = "swmr"
	for _, tc := range []struct {
		name string
		cfg  Config
		kind NetworkKind
	}{
		{"electrical", smallConfig(), Electrical},
		{"optical/mwsr", smallConfig(), Optical},
		{"optical/swmr", swmr, Optical},
		{"hybrid", smallConfig(), Hybrid},
		{"ideal", smallConfig(), IdealNet},
	} {
		t.Run(tc.name, func(t *testing.T) {
			net, err := BuildNetwork(tc.cfg, tc.kind)
			if err != nil {
				t.Fatal(err)
			}
			fabrictest.Endpoints(t, net)
			fabrictest.SelfMessage(t, net)
		})
	}
}
