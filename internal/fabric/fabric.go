// Package fabric is the one place a network kind becomes a fabric: the root
// package's BuildNetwork and the analytic estimator's probe both construct
// through it, and the session's cache keys mask through Mask, so a new
// fabric or constructor argument is added once. It sits below both because
// the root package imports internal/analytic.
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
		return onoc.NewCrossbar(nodes, cfg.Optical, cfg.Faults, cfg.Seed), nil
	case config.NetIdeal:
		return noc.NewIdeal(nodes, IdealLatencyCycles, IdealBytesPerCycle), nil
	case config.NetHybrid:
		return hybrid.New(nodes, cfg.Mesh, cfg.Optical, cfg.Hybrid.Threshold, cfg.Faults, cfg.Seed), nil
	default:
		return nil, fmt.Errorf("fabric: unknown network kind %q", kind)
	}
}

// Mask returns cfg with the sections a fabric of the given kind never reads
// reset to their defaults, so configs that differ only there build the same
// fabric. It mirrors Build: the mesh reads Mesh, the crossbars Optical and
// Faults (fault injection exists only in the photonic fabrics), the hybrid
// all of those and Hybrid, the ideal fabric none of them.
func Mask(cfg config.Config, kind config.NetworkKind) config.Config {
	def := config.Default()
	m := cfg
	m.Mesh, m.Optical, m.Faults, m.Hybrid = def.Mesh, def.Optical, def.Faults, def.Hybrid
	switch kind {
	case config.NetElectrical:
		m.Mesh = cfg.Mesh
	case config.NetOptical:
		m.Optical, m.Faults = cfg.Optical, cfg.Faults
	case config.NetHybrid:
		m.Mesh, m.Optical, m.Faults, m.Hybrid = cfg.Mesh, cfg.Optical, cfg.Faults, cfg.Hybrid
	}
	return m
}
