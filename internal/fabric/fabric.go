// Package fabric is the one place a network kind becomes a fabric: the root
// package's BuildNetwork and the analytic estimator's zero-load probe both
// construct through it, so a new fabric or constructor argument is added
// once. It sits below both because the root package imports internal/analytic.
package fabric

import (
	"fmt"

	"onocsim/internal/config"
	"onocsim/internal/enoc"
	"onocsim/internal/hybrid"
	"onocsim/internal/noc"
	"onocsim/internal/onoc"
	"onocsim/internal/sim"
)

// The ideal capture fabric's fixed latency and per-node injection bandwidth
// cap. No study varies them, so they are constants of the model rather than
// options of the config document (DESIGN §12).
const (
	IdealLatencyCycles sim.Tick = 20
	IdealBytesPerCycle          = 16
)

// Build constructs a fresh fabric of the given kind. The config must be
// valid: the constructors rely on Validate's preconditions (node count,
// channel capacity, geometry).
func Build(cfg config.Config, kind config.NetworkKind) (noc.Network, error) {
	nodes := cfg.System.Cores
	switch kind {
	case config.NetElectrical:
		return enoc.New(nodes, cfg.Mesh), nil
	case config.NetOptical:
		if cfg.Optical.Architecture == "swmr" {
			return onoc.NewSWMRWithFaults(nodes, cfg.Optical, cfg.Faults, cfg.Seed), nil
		}
		return onoc.NewWithFaults(nodes, cfg.Optical, cfg.Faults, cfg.Seed), nil
	case config.NetIdeal:
		return noc.NewIdeal(nodes, IdealLatencyCycles, IdealBytesPerCycle), nil
	case config.NetHybrid:
		return hybrid.NewWithFaults(nodes, cfg.Mesh, cfg.Optical, cfg.Hybrid.Threshold, cfg.Faults, cfg.Seed), nil
	default:
		return nil, fmt.Errorf("fabric: unknown network kind %q", kind)
	}
}
