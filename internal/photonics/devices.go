// Package photonics models the physical layer of the optical network:
// per-device insertion losses, the worst-case link power budget, laser
// wall-plug power, and per-bit modulation/reception energies.
//
// The parameter defaults are literature constants from the Corona /
// PhoenixSim era (c. 2008-2012), which is the technology point the
// reproduced paper targets. Every constant is overridable so that
// sensitivity studies can sweep the technology.
package photonics

import (
	"fmt"
	"math"
)

// DeviceParams collects the per-element optical losses (in dB, positive
// numbers mean attenuation) and electrical energies of the photonic link.
type DeviceParams struct {
	// CouplerLossDB is the fiber-to-chip coupler loss (per traversal).
	CouplerLossDB float64
	// WaveguideLossDBPerCm is propagation loss of on-chip waveguides.
	WaveguideLossDBPerCm float64
	// BendLossDB is the loss of one 90° waveguide bend.
	BendLossDB float64
	// SplitterLossDB is the excess loss of one Y-splitter stage.
	SplitterLossDB float64
	// RingThroughLossDB is the loss a wavelength suffers passing one
	// off-resonance ring.
	RingThroughLossDB float64
	// RingDropLossDB is the loss of being dropped by an on-resonance ring.
	RingDropLossDB float64
	// PhotodetectorLossDB is the detector coupling loss.
	PhotodetectorLossDB float64
	// CrossingLossDB is the loss of one waveguide crossing.
	CrossingLossDB float64

	// DetectorSensitivityDBm is the minimum optical power a receiver
	// needs for the target bit-error rate.
	DetectorSensitivityDBm float64
	// LaserEfficiency is the laser wall-plug efficiency (electrical →
	// optical), a fraction in (0,1].
	LaserEfficiency float64

	// ModulationEnergyPJPerBit is the dynamic energy to modulate one bit.
	ModulationEnergyPJPerBit float64
	// ReceiverEnergyPJPerBit is the dynamic energy to receive one bit.
	ReceiverEnergyPJPerBit float64
	// TuningPowerMWPerRing is the static thermal trimming power per ring.
	TuningPowerMWPerRing float64
}

// DefaultDeviceParams returns the Corona/PhoenixSim-era constants used
// throughout the reconstruction.
func DefaultDeviceParams() DeviceParams {
	return DeviceParams{
		CouplerLossDB:            1.0,
		WaveguideLossDBPerCm:     1.0,
		BendLossDB:               0.005,
		SplitterLossDB:           0.2,
		RingThroughLossDB:        0.01,
		RingDropLossDB:           1.0,
		PhotodetectorLossDB:      0.1,
		CrossingLossDB:           0.05,
		DetectorSensitivityDBm:   -20,
		LaserEfficiency:          0.3,
		ModulationEnergyPJPerBit: 0.05,
		ReceiverEnergyPJPerBit:   0.1,
		TuningPowerMWPerRing:     0.02,
	}
}

// Validate reports the first physically meaningless parameter.
func (p *DeviceParams) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("photonics: %s=%g must be finite and ≥0", name, v)
		}
		return nil
	}
	for _, c := range []struct {
		name string
		v    float64
	}{
		{"coupler_loss_db", p.CouplerLossDB},
		{"waveguide_loss_db_per_cm", p.WaveguideLossDBPerCm},
		{"bend_loss_db", p.BendLossDB},
		{"splitter_loss_db", p.SplitterLossDB},
		{"ring_through_loss_db", p.RingThroughLossDB},
		{"ring_drop_loss_db", p.RingDropLossDB},
		{"photodetector_loss_db", p.PhotodetectorLossDB},
		{"crossing_loss_db", p.CrossingLossDB},
		{"modulation_energy_pj_per_bit", p.ModulationEnergyPJPerBit},
		{"receiver_energy_pj_per_bit", p.ReceiverEnergyPJPerBit},
		{"tuning_power_mw_per_ring", p.TuningPowerMWPerRing},
	} {
		if err := check(c.name, c.v); err != nil {
			return err
		}
	}
	if p.LaserEfficiency <= 0 || p.LaserEfficiency > 1 {
		return fmt.Errorf("photonics: laser_efficiency=%g must be in (0,1]", p.LaserEfficiency)
	}
	if math.IsNaN(p.DetectorSensitivityDBm) || math.IsInf(p.DetectorSensitivityDBm, 0) {
		return fmt.Errorf("photonics: detector_sensitivity_dbm must be finite")
	}
	return nil
}

// PathProfile counts the optical elements along one worst-case source →
// destination lightpath of a topology. The loss budget is linear in these
// counts.
type PathProfile struct {
	Couplers        int
	WaveguideCm     float64
	Bends           int
	SplitterStages  int
	RingsPassed     int // off-resonance rings traversed
	RingsDropped    int // on-resonance drop operations (normally 1)
	Crossings       int
	PhotodetectorOn bool
}

// LossDB returns the total insertion loss of the path in dB.
func (p DeviceParams) LossDB(path PathProfile) float64 {
	loss := float64(path.Couplers)*p.CouplerLossDB +
		path.WaveguideCm*p.WaveguideLossDBPerCm +
		float64(path.Bends)*p.BendLossDB +
		float64(path.SplitterStages)*p.SplitterLossDB +
		float64(path.RingsPassed)*p.RingThroughLossDB +
		float64(path.RingsDropped)*p.RingDropLossDB +
		float64(path.Crossings)*p.CrossingLossDB
	if path.PhotodetectorOn {
		loss += p.PhotodetectorLossDB
	}
	return loss
}

// DBmToMW converts dBm to milliwatts.
func DBmToMW(dbm float64) float64 { return math.Pow(10, dbm/10) }

// LaserPowerPerWavelengthMW returns the *electrical* wall-plug power one
// wavelength needs so the detector still sees its sensitivity floor after
// the worst-case path loss.
func (p DeviceParams) LaserPowerPerWavelengthMW(worstLossDB float64) float64 {
	requiredAtLaserDBm := p.DetectorSensitivityDBm + worstLossDB
	opticalMW := DBmToMW(requiredAtLaserDBm)
	return opticalMW / p.LaserEfficiency
}
