package config

import (
	"fmt"
	"os"
)

// Sweep is a design-space sweep specification: the cross product of its axes
// is expanded into one job per point ("arm"). The spec is deliberately a
// plain value — the expansion, pruning and Pareto machinery live in
// internal/sweep; this package only knows how to validate the grid against
// the same invariants Config.Validate enforces per point, so a bad axis is
// rejected before any of the hundreds of arms is built.
type Sweep struct {
	// Name labels the sweep in reports; defaults to "sweep".
	Name string `json:"name"`
	// Networks lists the target fabrics (electrical, optical, hybrid;
	// ideal is allowed but rarely interesting).
	Networks []NetworkKind `json:"networks"`
	// Cores lists system sizes; every entry must be a perfect square in
	// [4, MaxCores], and a power of two when the fft kernel is in Kernels.
	Cores []int `json:"cores"`
	// Wavelengths lists WDM degrees (1..128). Electrical arms ignore the
	// axis, and the fingerprint-level dedup collapses them accordingly.
	Wavelengths []int `json:"wavelengths"`
	// Faults lists fault preset names (off, light, heavy).
	Faults []string `json:"faults"`
	// Kernels lists workload kernels (fft, lu, stencil, sort, reduce).
	Kernels []string `json:"kernels"`
	// Quick shrinks every arm's kernel to the quick problem size (scale 4,
	// 2 iterations), same as the experiment runner's -quick.
	Quick bool `json:"quick"`
	// PruneMargin is the analytic-prefilter dominance margin m: an arm is
	// pruned without simulation when another arm's estimate is at least a
	// factor (1+m) better on latency and throughput and no worse on
	// power. 0 means the default 0.20; negative disables pruning.
	PruneMargin float64 `json:"prune_margin"`
	// Seed drives every arm's RNG streams; 0 means 42.
	Seed uint64 `json:"seed"`
}

// DefaultSweep returns the standard quick grid: 3 fabrics x 2 system sizes
// x 3 WDM degrees x 2 fault presets x 2 kernels = 72 arms.
func DefaultSweep() Sweep {
	return Sweep{
		Name:        "sweep",
		Networks:    []NetworkKind{NetElectrical, NetOptical, NetHybrid},
		Cores:       []int{16, 64},
		Wavelengths: []int{4, 16, 64},
		Faults:      []string{"off", "heavy"},
		Kernels:     []string{"stencil", "fft"},
		Quick:       true,
	}
}

// Normalize fills defaulted fields in place and returns the spec for
// chaining. Empty axes default to the DefaultSweep axis.
func (s *Sweep) Normalize() *Sweep {
	def := DefaultSweep()
	if s.Name == "" {
		s.Name = def.Name
	}
	if len(s.Networks) == 0 {
		s.Networks = def.Networks
	}
	if len(s.Cores) == 0 {
		s.Cores = def.Cores
	}
	if len(s.Wavelengths) == 0 {
		s.Wavelengths = def.Wavelengths
	}
	if len(s.Faults) == 0 {
		s.Faults = def.Faults
	}
	if len(s.Kernels) == 0 {
		s.Kernels = def.Kernels
	}
	if s.PruneMargin == 0 {
		s.PruneMargin = 0.20
	}
	if s.Seed == 0 {
		s.Seed = 42
	}
	return s
}

// maxSweepArms caps the expanded grid. Axis values may repeat, so without it
// a small spec (a request body is at most 1 MiB) expands to an unbounded
// number of arms; the distinct-valued grids anyone sweeps are far below it.
const maxSweepArms = 4096

// Arms returns the grid size: the product of the axis lengths.
func (s Sweep) Arms() int {
	return len(s.Networks) * len(s.Cores) * len(s.Wavelengths) * len(s.Faults) * len(s.Kernels)
}

// Validate checks every axis value against the per-point config invariants,
// so expansion cannot produce an invalid arm. Call Normalize first; empty
// axes are rejected here.
func (s Sweep) Validate() error {
	if len(s.Networks) == 0 || len(s.Cores) == 0 || len(s.Wavelengths) == 0 ||
		len(s.Faults) == 0 || len(s.Kernels) == 0 {
		return fmt.Errorf("config: sweep has an empty axis (normalize first, or fill networks/cores/wavelengths/faults/kernels)")
	}
	arms := 1
	for _, n := range []int{len(s.Networks), len(s.Cores), len(s.Wavelengths), len(s.Faults), len(s.Kernels)} {
		// Per axis, by division: the running product never exceeds the limit,
		// so it cannot overflow however long a (duplicated) axis is.
		if n > maxSweepArms/arms {
			return fmt.Errorf("config: sweep grid exceeds %d arms (split it into several specs)", maxSweepArms)
		}
		arms *= n
	}
	for _, k := range s.Networks {
		if !k.Valid() {
			return fmt.Errorf("config: sweep network %q unknown", k)
		}
	}
	needPow2 := false
	for _, kern := range s.Kernels {
		switch kern {
		case "fft":
			needPow2 = true
		case "lu", "stencil", "sort", "reduce":
		default:
			return fmt.Errorf("config: sweep kernel %q unknown (want fft, lu, stencil, sort, or reduce)", kern)
		}
	}
	for _, c := range s.Cores {
		if c < 4 || c > MaxCores || !isSquare(c) {
			return fmt.Errorf("config: sweep cores %d must be a perfect square in [4, config.MaxCores=%d]", c, MaxCores)
		}
		if needPow2 && !isPow2(c) {
			return fmt.Errorf("config: sweep cores %d must be a power of two when the fft kernel is swept", c)
		}
	}
	for _, w := range s.Wavelengths {
		if w < 1 || w > 128 {
			return fmt.Errorf("config: sweep wavelengths %d out of range [1,128]", w)
		}
	}
	for _, f := range s.Faults {
		if _, err := FaultPreset(f); err != nil {
			return fmt.Errorf("config: sweep %w", err)
		}
	}
	if s.PruneMargin >= 1 {
		return fmt.Errorf("config: sweep prune_margin %.2f must be below 1", s.PruneMargin)
	}
	return nil
}

// ParseSweep decodes and validates a JSON sweep spec, rejecting unknown
// fields (typoed axis names would otherwise silently sweep the default).
func ParseSweep(data []byte) (Sweep, error) {
	var s Sweep
	if err := DecodeStrict(data, &s); err != nil {
		return Sweep{}, fmt.Errorf("config: parse sweep: %w", err)
	}
	s.Normalize()
	if err := s.Validate(); err != nil {
		return Sweep{}, err
	}
	return s, nil
}

// LoadSweep reads and validates a JSON sweep spec file.
func LoadSweep(path string) (Sweep, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Sweep{}, fmt.Errorf("config: read sweep %s: %w", path, err)
	}
	return ParseSweep(data)
}
