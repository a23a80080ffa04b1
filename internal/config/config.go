// Package config defines the JSON-serializable configuration schema for
// every simulator in onocsim and validates it. One Config describes a
// complete experiment: the chip (cores, caches), the interconnect (electrical
// mesh or optical crossbar), the workload, and the self-correction trace
// model parameters.
package config

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
)

// NetworkKind selects which interconnect model a simulation uses.
type NetworkKind string

const (
	// NetElectrical is the baseline wormhole virtual-channel mesh.
	NetElectrical NetworkKind = "electrical"
	// NetOptical is the wavelength-routed photonic crossbar.
	NetOptical NetworkKind = "optical"
	// NetIdeal is a contention-free fixed-latency network used as the
	// cheap reference fabric for trace capture.
	NetIdeal NetworkKind = "ideal"
	// NetHybrid is the path-adaptive opto-electronic fabric: short hops
	// ride the mesh, long hops the crossbar.
	NetHybrid NetworkKind = "hybrid"
)

// Valid reports whether k names a fabric: the one list of kinds a flag, a
// request field, a config document or a sweep axis is checked against.
func (k NetworkKind) Valid() bool {
	switch k {
	case NetElectrical, NetOptical, NetIdeal, NetHybrid:
		return true
	}
	return false
}

// Config is the root configuration object.
type Config struct {
	// Name labels the experiment in reports.
	Name string `json:"name"`
	// Seed drives every RNG stream in the simulation.
	Seed uint64 `json:"seed"`

	System   System   `json:"system"`
	Mesh     Mesh     `json:"mesh"`
	Optical  Optical  `json:"optical"`
	Hybrid   Hybrid   `json:"hybrid"`
	Workload Workload `json:"workload"`
	SCTM     SCTM     `json:"sctm"`

	// Network selects the interconnect under study.
	Network NetworkKind `json:"network"`
	// MaxCycles bounds any single simulation; 0 means the package default
	// (a safety net against livelocked protocols, not a tuning knob).
	MaxCycles int64 `json:"max_cycles"`

	// Faults configures deterministic optical fault injection; the zero
	// value disables it entirely.
	Faults Faults `json:"faults"`

	// Parallelism tunes intra-run execution; it can never change results.
	Parallelism Parallelism `json:"parallelism"`
}

// Faults configures deterministic fault injection in the photonic fabrics
// (internal/fault). Every schedule derives from Seed plus these parameters
// alone, so the same (seed, faults) pair always yields the same fault
// timeline — on any host, in every round. The zero value means "no
// faults".
type Faults struct {
	// ThermalMTBF is the mean number of cycles between thermal drift
	// windows on each optical channel's ring bank; 0 disables the class.
	ThermalMTBF int64 `json:"thermal_mtbf"`
	// ThermalDuration is how many cycles one drift window lasts.
	ThermalDuration int64 `json:"thermal_duration"`
	// ThermalDetune is the fraction of a channel's wavelengths detuned
	// (unusable) while a drift window is active, in (0,1]. At least one
	// wavelength always survives, so degradation is graceful.
	ThermalDetune float64 `json:"thermal_detune"`
	// TokenMTBF is the mean number of cycles between lost-token events on
	// each MWSR home channel; 0 disables the class. The SWMR crossbar has
	// no arbitration token and ignores this class.
	TokenMTBF int64 `json:"token_mtbf"`
	// TokenTimeout is the recovery latency: a channel whose token is lost
	// stalls until the timeout fires and a fresh token is regenerated at
	// the home node.
	TokenTimeout int64 `json:"token_timeout"`
	// LaserDroopDB shrinks the worst-case optical link margin by this many
	// dB. Lightpaths whose loss exceeds the shrunken budget are derated
	// (modulation rate halved per 3 dB of excess); the hybrid fabric
	// reroutes such pairs over the electrical mesh instead.
	LaserDroopDB float64 `json:"laser_droop_db"`
}

// Enabled reports whether any fault class is active.
func (f Faults) Enabled() bool {
	return f.ThermalMTBF > 0 || f.TokenMTBF > 0 || f.LaserDroopDB > 0
}

// FaultPreset returns a named fault configuration (R18's rows, a sweep spec's
// faults axis): "off" (or "none") disables injection, "light" models occasional
// transients, "heavy" a chip near the edge of its thermal and power envelope.
func FaultPreset(name string) (Faults, error) {
	switch name {
	case "", "off", "none":
		return Faults{}, nil
	case "light":
		return Faults{
			ThermalMTBF:     40_000,
			ThermalDuration: 2_000,
			ThermalDetune:   0.5,
			TokenMTBF:       60_000,
			TokenTimeout:    250,
			LaserDroopDB:    1,
		}, nil
	case "heavy":
		return Faults{
			ThermalMTBF:     12_000,
			ThermalDuration: 4_000,
			ThermalDetune:   0.75,
			TokenMTBF:       16_000,
			TokenTimeout:    600,
			LaserDroopDB:    3,
		}, nil
	default:
		return Faults{}, fmt.Errorf("config: unknown fault preset %q (want off, light, or heavy)", name)
	}
}

// Parallelism configures how a replay runs, never what it computes, which is
// why this section is excluded from Fingerprint: cached results remain valid
// whatever the setting.
type Parallelism struct {
	// Shards must be 0 or 1: every replay runs on one fabric. A value above
	// 1 is refused; splitting a replay across replica fabrics never changed
	// a result and, measured end to end, was slower than one fabric.
	Shards int `json:"shards"`
	// WindowEvents bounds how many decoded-but-not-yet-injectable events a
	// replay keeps resident when the trace is read from a file; a trace
	// already in memory has nothing to bound. 0 selects the default window
	// (trace.DefaultWindow); -1 lifts the bound. A schedule needing more
	// residency than the window fails with an error naming the required
	// size — never a deadlock, never a silently wrong result. It cannot
	// change results and stays out of Fingerprint. It bounds no coupled
	// pass: a coupled replay, sctm.seed "coupled"'s included, holds
	// O(events + edges) resident whatever the source.
	WindowEvents int `json:"window_events,omitempty"`
}

// System describes the CMP substrate a study varies: core count, shared L2
// and memory controllers. The private L1, the bank and memory latencies and
// the message sizes are constants of the cpu model (DESIGN §12).
type System struct {
	// Cores is the number of processing cores; it must be a perfect square
	// (cores tile the 2-D mesh used by both fabrics) in [4, MaxCores].
	Cores int `json:"cores"`
	// L2SetsPerBank, L2Ways size each distributed shared-L2 bank (one
	// bank per core tile, S-NUCA address interleaving).
	L2SetsPerBank int `json:"l2_sets_per_bank"`
	L2Ways        int `json:"l2_ways"`
	// MemPorts places that many memory controllers at the chip corners
	// (0–4). With 0 (the default), off-chip latency is folded into the
	// home bank; with ≥1, every L2 data miss becomes real request/response
	// traffic to a controller tile — the memory-bound traffic pattern
	// photonic interconnects are usually pitched at.
	MemPorts int `json:"mem_ports"`
}

// Mesh configures the baseline electrical NoC. Link width, buffer depth,
// router and wire latencies and the clock are constants of internal/enoc.
type Mesh struct {
	// Topology selects "mesh" (default) or "torus" (wraparound links with
	// dateline virtual-channel deadlock avoidance; requires xy routing and
	// at least two VCs per message class).
	Topology string `json:"topology"`
	// VCs is the number of virtual channels per physical port.
	VCs int `json:"vcs"`
	// Routing selects "xy" (deterministic) or "westfirst" (partially
	// adaptive, deadlock-free turn model).
	Routing string `json:"routing"`
}

// Optical configures the photonic crossbar (Corona-class MWSR). Line rate,
// clock, token timing, propagation, O/E overhead and die edge are constants
// of internal/onoc.
type Optical struct {
	// Architecture selects the crossbar organization: "mwsr" (Corona:
	// token-arbitrated home channels, the default) or "swmr" (Firefly:
	// per-sender broadcast channels, no arbitration, quadratic receivers).
	Architecture string `json:"architecture"`
	// WavelengthsPerChannel is the WDM degree of each home channel.
	WavelengthsPerChannel int `json:"wavelengths_per_channel"`
}

// Hybrid configures the path-adaptive opto-electronic fabric.
type Hybrid struct {
	// Threshold is the minimum Manhattan hop distance routed optically;
	// shorter paths ride the electrical mesh.
	Threshold int `json:"threshold"`
}

// WorkloadKind names a traffic source.
type WorkloadKind string

const (
	WorkloadSynthetic WorkloadKind = "synthetic"
	WorkloadKernel    WorkloadKind = "kernel"
)

// Workload selects and parameterizes the traffic.
type Workload struct {
	Kind WorkloadKind `json:"kind"`

	// Synthetic traffic parameters.
	// Pattern is one of uniform, transpose, hotspot, bitcomplement,
	// neighbor, tornado.
	Pattern string `json:"pattern"`
	// InjectionRate is flits/node/cycle offered load (electrical flit
	// granularity is used for both fabrics so loads are comparable).
	InjectionRate float64 `json:"injection_rate"`
	// PacketBytes is the synthetic packet payload size.
	PacketBytes int `json:"packet_bytes"`
	// Packets is the total number of packets to inject per node.
	Packets int `json:"packets"`

	// Kernel parameters.
	// Kernel is one of fft, lu, stencil, sort.
	Kernel string `json:"kernel"`
	// Scale sets the kernel problem size (kernel-specific meaning:
	// FFT points per core, LU matrix blocks, stencil block edge, sort
	// keys per core).
	Scale int `json:"scale"`
	// Iterations repeats iterative kernels (stencil sweeps).
	Iterations int `json:"iterations"`
	// ComputeScale multiplies every modelled compute gap, emulating
	// faster or slower cores relative to the network.
	ComputeScale float64 `json:"compute_scale"`
	// Jitter adds seed-driven per-operation compute variation of ±Jitter
	// (fraction, 0 disables), modelling input-dependent work. The R16
	// experiment uses it to test seed robustness.
	Jitter float64 `json:"jitter"`
}

// SCTM parameterizes the self-correction trace model.
type SCTM struct {
	// MaxIterations bounds the correction fixpoint loop, which also stops
	// at a round whose re-derived schedule equals the one it replayed.
	MaxIterations int `json:"max_iterations"`
	// MakespanTolerance is the relative makespan change between
	// consecutive rounds below which the loop is declared converged
	// (the per-event schedule keeps jittering under contention long
	// after the aggregate stabilizes). 0 disables the criterion.
	MakespanTolerance float64 `json:"makespan_tolerance"`
	// DisableSyncDeps / DisableCausalDeps ablate dependency classes
	// (experiment R8); production use leaves both false.
	DisableSyncDeps   bool `json:"disable_sync_deps"`
	DisableCausalDeps bool `json:"disable_causal_deps"`
	// Seed selects the round-0 latency seeding strategy:
	//
	//   "" or "zeroload" per-event ZeroLoadLatency on the target fabric,
	//                    the paper's method.
	//   "coupled"        the latencies of a coupled replay, the loop's exact
	//                    fixpoint, so the loop stops in round 0.
	Seed string `json:"seed,omitempty"`
	// Incremental is refused when set: every correction round replays in
	// full from cycle zero, and rounds resumed from fabric checkpoints are
	// gone. The field remains only because the benchmark sets it when it
	// calls core.SelfCorrect directly; core ignores it.
	Incremental bool `json:"incremental,omitempty"`
}

// SeedMode is the effective seeding strategy: the empty value is "zeroload".
func (t *SCTM) SeedMode() string {
	if t.Seed != "" {
		return t.Seed
	}
	return "zeroload"
}

// Default returns a fully populated baseline configuration: a 64-core chip,
// a 4-VC xy mesh, a 16-wavelength MWSR crossbar, and a stencil kernel
// workload.
func Default() Config {
	return Config{
		Name:    "default",
		Seed:    42,
		Network: NetElectrical,
		System: System{
			Cores:         64,
			L2SetsPerBank: 256,
			L2Ways:        8,
		},
		Mesh: Mesh{
			Topology: "mesh",
			VCs:      4,
			Routing:  "xy",
		},
		Optical: Optical{
			Architecture:          "mwsr",
			WavelengthsPerChannel: 16,
		},
		Hybrid: Hybrid{
			Threshold: 4,
		},
		Workload: Workload{
			Kind:          WorkloadKernel,
			Pattern:       "uniform",
			InjectionRate: 0.05,
			PacketBytes:   64,
			Packets:       200,
			Kernel:        "stencil",
			Scale:         8,
			Iterations:    4,
			ComputeScale:  1,
		},
		SCTM: SCTM{
			MaxIterations:     10,
			MakespanTolerance: 0.01,
		},
		Parallelism: Parallelism{Shards: 1},
	}
}

// isSquare reports whether n is a positive perfect square.
func isSquare(n int) bool {
	w := GridWidth(n)
	return n > 0 && w*w == n
}

// isPow2 reports whether n is a positive power of two.
func isPow2(n int) bool { return n > 0 && n&(n-1) == 0 }

// MaxCores bounds system.cores from above, as a crossbar's two nodes bound it
// from below. Building an optical crossbar is quadratic in the core count
// (≈ 514 MB at 4 096 cores; 16 384 exhaust the host), so an unbounded count
// lets one request end the daemon. Like maxSweepArms it is a validation
// bound, not a knob: nothing in the repo runs more than 256 cores.
const MaxCores = 1024

// Validate checks cross-field invariants and returns a descriptive error for
// the first violation found.
func (c *Config) Validate() error {
	s := &c.System
	switch {
	case !isSquare(s.Cores):
		return fmt.Errorf("config: system.cores=%d must be a positive perfect square", s.Cores)
	case s.Cores < 4 || s.Cores > MaxCores:
		return fmt.Errorf("config: system.cores=%d out of [4, config.MaxCores=%d]: a crossbar needs two nodes", s.Cores, MaxCores)
	case !isPow2(s.L2SetsPerBank) || s.L2Ways <= 0:
		return fmt.Errorf("config: invalid L2 geometry sets=%d ways=%d", s.L2SetsPerBank, s.L2Ways)
	case s.MemPorts < 0 || s.MemPorts > 4:
		return fmt.Errorf("config: system.mem_ports=%d out of [0,4]: memory controllers sit at the chip corners, so at most 4 exist", s.MemPorts)
	}
	m := &c.Mesh
	switch {
	case m.Topology != "mesh" && m.Topology != "torus":
		return fmt.Errorf("config: mesh.topology=%q not in {mesh, torus}", m.Topology)
	case m.Topology == "torus" && m.Routing != "xy":
		return fmt.Errorf("config: torus requires xy routing, got %q", m.Routing)
	case m.Topology == "torus" && m.VCs < 6:
		return fmt.Errorf("config: torus needs ≥2 VCs per message class (≥6 total), got %d", m.VCs)
	case m.VCs < 1 || m.VCs > 16:
		return fmt.Errorf("config: mesh.vcs=%d out of [1,16]", m.VCs)
	case m.Routing != "xy" && m.Routing != "westfirst":
		return fmt.Errorf("config: mesh.routing=%q not in {xy, westfirst}", m.Routing)
	}
	o := &c.Optical
	switch {
	case o.Architecture != "mwsr" && o.Architecture != "swmr":
		return fmt.Errorf("config: optical.architecture=%q not in {mwsr, swmr}", o.Architecture)
	case o.WavelengthsPerChannel < 1 || o.WavelengthsPerChannel > 128:
		return fmt.Errorf("config: optical.wavelengths_per_channel=%d out of [1,128]", o.WavelengthsPerChannel)
	}
	if c.Hybrid.Threshold < 1 {
		return fmt.Errorf("config: hybrid.threshold=%d must be ≥1", c.Hybrid.Threshold)
	}
	w := &c.Workload
	switch w.Kind {
	case WorkloadSynthetic:
		switch w.Pattern {
		case "uniform", "transpose", "hotspot", "bitcomplement", "neighbor", "tornado":
		default:
			return fmt.Errorf("config: unknown synthetic pattern %q", w.Pattern)
		}
		if w.InjectionRate <= 0 || w.InjectionRate > 1 {
			return fmt.Errorf("config: injection_rate=%g out of (0,1]", w.InjectionRate)
		}
		if w.PacketBytes <= 0 || w.Packets <= 0 {
			return fmt.Errorf("config: synthetic sizes must be positive")
		}
	case WorkloadKernel:
		switch w.Kernel {
		case "fft", "lu", "stencil", "sort", "reduce":
		default:
			return fmt.Errorf("config: unknown kernel %q", w.Kernel)
		}
		if w.Scale <= 0 {
			return fmt.Errorf("config: workload.scale=%d must be positive", w.Scale)
		}
		if w.Iterations <= 0 {
			return fmt.Errorf("config: workload.iterations=%d must be positive", w.Iterations)
		}
		if w.ComputeScale <= 0 {
			return fmt.Errorf("config: workload.compute_scale must be positive")
		}
		if w.Jitter < 0 || w.Jitter > 0.5 {
			return fmt.Errorf("config: workload.jitter=%g out of [0,0.5]", w.Jitter)
		}
	default:
		return fmt.Errorf("config: unknown workload kind %q", w.Kind)
	}
	if !c.Network.Valid() {
		return fmt.Errorf("config: unknown network %q", c.Network)
	}
	t := &c.SCTM
	if t.MaxIterations < 1 {
		return fmt.Errorf("config: sctm.max_iterations=%d must be ≥1", t.MaxIterations)
	}
	if t.MakespanTolerance < 0 || t.MakespanTolerance > 0.5 {
		return fmt.Errorf("config: sctm.makespan_tolerance=%g out of [0,0.5]", t.MakespanTolerance)
	}
	switch t.Seed {
	case "", "zeroload", "coupled":
	default:
		return fmt.Errorf("config: sctm.seed=%q not in {zeroload, coupled}", t.Seed)
	}
	if t.Incremental {
		return fmt.Errorf("config: sctm.incremental is no longer supported: every correction round replays in full")
	}
	if c.MaxCycles < 0 {
		return fmt.Errorf("config: max_cycles must be ≥0")
	}
	f := &c.Faults
	switch {
	case f.ThermalMTBF < 0 || f.TokenMTBF < 0:
		return fmt.Errorf("config: fault MTBFs must be ≥0 (thermal=%d token=%d)", f.ThermalMTBF, f.TokenMTBF)
	case f.ThermalMTBF > 0 && f.ThermalDuration < 1:
		return fmt.Errorf("config: faults.thermal_duration=%d must be ≥1 when thermal drift is enabled", f.ThermalDuration)
	case f.ThermalMTBF > 0 && (f.ThermalDetune <= 0 || f.ThermalDetune > 1):
		return fmt.Errorf("config: faults.thermal_detune=%g out of (0,1]", f.ThermalDetune)
	case f.ThermalMTBF == 0 && (f.ThermalDuration != 0 || f.ThermalDetune != 0):
		return fmt.Errorf("config: thermal fault parameters set but faults.thermal_mtbf=0")
	case f.TokenMTBF > 0 && f.TokenTimeout < 1:
		return fmt.Errorf("config: faults.token_timeout=%d must be ≥1 when token faults are enabled", f.TokenTimeout)
	case f.TokenMTBF == 0 && f.TokenTimeout != 0:
		return fmt.Errorf("config: faults.token_timeout set but faults.token_mtbf=0")
	case f.LaserDroopDB < 0 || f.LaserDroopDB > 60:
		return fmt.Errorf("config: faults.laser_droop_db=%g out of [0,60]", f.LaserDroopDB)
	}
	if s := c.Parallelism.Shards; s != 0 && s != 1 {
		return fmt.Errorf("config: parallelism.shards=%d is refused: every replay runs on one fabric (0 and 1 both mean serial)", s)
	}
	if c.Parallelism.WindowEvents < -1 {
		return fmt.Errorf("config: parallelism.window_events must be ≥ -1 (-1 = unbounded)")
	}
	if c.Parallelism.WindowEvents > 1<<31 {
		return fmt.Errorf("config: parallelism.window_events=%d is implausibly large", c.Parallelism.WindowEvents)
	}
	return nil
}

// MeshWidth returns the edge length of the square core grid.
func (c *Config) MeshWidth() int { return GridWidth(c.System.Cores) }

// GridWidth returns the edge length of the smallest square grid that holds
// nodes: the layout every mesh-shaped model (router grid, hybrid distance
// rule, traffic patterns, analytic link walk) places its nodes on.
func GridWidth(nodes int) int {
	w := 1
	for w*w < nodes {
		w++
	}
	return w
}

// MaxCyclesOrDefault returns the simulation cycle bound, substituting a
// generous default when unset.
func (c *Config) MaxCyclesOrDefault() int64 {
	if c.MaxCycles > 0 {
		return c.MaxCycles
	}
	return 200_000_000
}

// Load reads and validates a JSON config file.
func Load(path string) (Config, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Config{}, fmt.Errorf("config: %w", err)
	}
	return Parse(data)
}

// Parse decodes and validates JSON bytes. Unknown fields are rejected so
// typos in experiment configs fail loudly — and so does a document written
// before a leaf became a model constant: its value would otherwise be
// silently ignored.
func Parse(data []byte) (Config, error) {
	c := Default()
	if err := DecodeStrict(data, &c); err != nil {
		return Config{}, fmt.Errorf("config: decode: %w", err)
	}
	if err := c.Validate(); err != nil {
		return Config{}, err
	}
	return c, nil
}

// DecodeStrict decodes data into v as exactly one JSON value: unknown fields
// are rejected, and so is anything but whitespace after the value — a document
// followed by garbage is a malformed document, not a valid one with a tail.
// Every request body and spec file is decoded through here.
func DecodeStrict(data []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// Save writes the config as indented JSON.
func (c *Config) Save(path string) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("config: encode: %w", err)
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
