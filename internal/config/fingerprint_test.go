package config

import (
	"strings"
	"testing"
)

func fp(t *testing.T, c Config) string {
	t.Helper()
	s, err := c.Fingerprint()
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestFingerprintPinned pins the exact digests of the two workhorse configs.
// The Faults section is hashed only when non-zero, so these values must
// never change for fault-free configs: every disk-cached result keyed before
// fault injection existed stays addressable.
func TestFingerprintPinned(t *testing.T) {
	cfg := Default()
	if got, want := fp(t, cfg), "2603f2024a47be4164fbf88ced243dcf57c7ec1cf5535915b39771e85bf2fa28"; got != want {
		t.Errorf("Default() fingerprint = %s, want %s", got, want)
	}
	cfg.Network = NetOptical
	if got, want := fp(t, cfg), "ec4824c872f793960241db4f077ca8c54b4af664b0491e277a1a23330af2da36"; got != want {
		t.Errorf("optical fingerprint = %s, want %s", got, want)
	}
}

// TestFingerprintDistinguishesFaults checks every Faults field independently
// perturbs the digest: two configs differing in any fault parameter must
// never collide in the result cache.
func TestFingerprintDistinguishesFaults(t *testing.T) {
	base := Default()
	base.Faults, _ = FaultPreset("light")
	seen := map[string]string{"base": fp(t, base)}
	mutations := []struct {
		name   string
		mutate func(*Faults)
	}{
		{"thermal_mtbf", func(f *Faults) { f.ThermalMTBF++ }},
		{"thermal_duration", func(f *Faults) { f.ThermalDuration++ }},
		{"thermal_detune", func(f *Faults) { f.ThermalDetune += 0.01 }},
		{"token_mtbf", func(f *Faults) { f.TokenMTBF++ }},
		{"token_timeout", func(f *Faults) { f.TokenTimeout++ }},
		{"laser_droop_db", func(f *Faults) { f.LaserDroopDB += 0.5 }},
	}
	for _, m := range mutations {
		c := base
		m.mutate(&c.Faults)
		h := fp(t, c)
		for prev, ph := range seen {
			if h == ph {
				t.Errorf("%s collides with %s", m.name, prev)
			}
		}
		seen[m.name] = h
	}
	// A faulted config must also differ from its fault-free twin.
	clean := Default()
	if fp(t, clean) == seen["base"] {
		t.Error("faulted config collides with fault-free config")
	}
}

// TestFingerprintSeedModeCompatibility pins that the SCTM seed mode is
// hashed only when explicitly set: configs with the default empty mode keep
// the exact digests pinned before the field existed (PR 5), so every
// previously persisted cache entry stays addressable, while each explicit
// mode gets its own identity.
func TestFingerprintSeedModeCompatibility(t *testing.T) {
	cfg := Default()
	if cfg.SCTM.Seed != "" {
		t.Fatalf("Default() seed mode = %q, want empty (legacy)", cfg.SCTM.Seed)
	}
	if got, want := fp(t, cfg), "2603f2024a47be4164fbf88ced243dcf57c7ec1cf5535915b39771e85bf2fa28"; got != want {
		t.Errorf("default-seed fingerprint = %s, want PR5 digest %s", got, want)
	}
	optical := cfg
	optical.Network = NetOptical
	if got, want := fp(t, optical), "ec4824c872f793960241db4f077ca8c54b4af664b0491e277a1a23330af2da36"; got != want {
		t.Errorf("default-seed optical fingerprint = %s, want PR5 digest %s", got, want)
	}
	// Every explicit mode must hash distinctly from the default and from
	// each other sibling mode.
	seen := map[string]string{"default": fp(t, cfg)}
	for _, mode := range []string{"zeroload", "analytic", "fixed"} {
		c := Default()
		c.SCTM.Seed = mode
		if mode == "fixed" {
			c.SCTM.InitialLatencyCycles = 25
		}
		h := fp(t, c)
		for prev, ph := range seen {
			if h == ph {
				t.Errorf("seed mode %q collides with %s", mode, prev)
			}
		}
		seen[mode] = h
	}
}

// TestValidateSeedMode checks the seed-mode cross-field rules.
func TestValidateSeedMode(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*SCTM)
		want   string // substring of the error, "" for valid
	}{
		{"default", func(t *SCTM) {}, ""},
		{"zeroload", func(t *SCTM) { t.Seed = "zeroload" }, ""},
		{"analytic", func(t *SCTM) { t.Seed = "analytic" }, ""},
		{"fixed with cycles", func(t *SCTM) { t.Seed = "fixed"; t.InitialLatencyCycles = 10 }, ""},
		{"unknown mode", func(t *SCTM) { t.Seed = "psychic" }, "sctm.seed"},
		{"fixed without cycles", func(t *SCTM) { t.Seed = "fixed" }, "initial_latency_cycles"},
		{"zeroload with cycles", func(t *SCTM) { t.Seed = "zeroload"; t.InitialLatencyCycles = 10 }, "contradicts"},
		{"analytic with cycles", func(t *SCTM) { t.Seed = "analytic"; t.InitialLatencyCycles = 10 }, "contradicts"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Default()
			c.mutate(&cfg.SCTM)
			err := cfg.Validate()
			if c.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %v does not mention %q", err, c.want)
			}
		})
	}
}

// TestSeedModeResolution pins the legacy resolution of the empty mode.
func TestSeedModeResolution(t *testing.T) {
	var s SCTM
	if got := s.SeedMode(); got != "zeroload" {
		t.Errorf("empty SCTM seed mode = %q, want zeroload", got)
	}
	s.InitialLatencyCycles = 5
	if got := s.SeedMode(); got != "fixed" {
		t.Errorf("legacy initial-latency seed mode = %q, want fixed", got)
	}
	s.Seed = "analytic"
	if got := s.SeedMode(); got != "analytic" {
		t.Errorf("explicit seed mode = %q, want analytic", got)
	}
}

func TestFaultPreset(t *testing.T) {
	for _, name := range []string{"", "off", "none"} {
		f, err := FaultPreset(name)
		if err != nil || f.Enabled() {
			t.Errorf("preset %q: %+v, %v", name, f, err)
		}
	}
	for _, name := range []string{"light", "heavy"} {
		f, err := FaultPreset(name)
		if err != nil || !f.Enabled() {
			t.Errorf("preset %q: %+v, %v", name, f, err)
		}
		cfg := Default()
		cfg.Faults = f
		if err := cfg.Validate(); err != nil {
			t.Errorf("preset %q fails validation: %v", name, err)
		}
	}
	if _, err := FaultPreset("catastrophic"); err == nil || !strings.Contains(err.Error(), "catastrophic") {
		t.Errorf("unknown preset error = %v", err)
	}
}

func TestValidateFaultRejections(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Faults)
		want   string
	}{
		{"negative mtbf", func(f *Faults) { f.ThermalMTBF = -1 }, "MTBFs"},
		{"drift without duration", func(f *Faults) { f.ThermalMTBF = 100; f.ThermalDetune = 0.5 }, "thermal_duration"},
		{"drift detune range", func(f *Faults) { f.ThermalMTBF = 100; f.ThermalDuration = 10; f.ThermalDetune = 1.5 }, "thermal_detune"},
		{"orphan thermal params", func(f *Faults) { f.ThermalDetune = 0.5 }, "thermal_mtbf=0"},
		{"token without timeout", func(f *Faults) { f.TokenMTBF = 100 }, "token_timeout"},
		{"orphan token timeout", func(f *Faults) { f.TokenTimeout = 10 }, "token_mtbf=0"},
		{"droop range", func(f *Faults) { f.LaserDroopDB = 61 }, "laser_droop_db"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg := Default()
			c.mutate(&cfg.Faults)
			err := cfg.Validate()
			if err == nil {
				t.Fatalf("expected validation error containing %q", c.want)
			}
			if !strings.Contains(err.Error(), c.want) {
				t.Fatalf("error %q does not mention %q", err, c.want)
			}
		})
	}
}

// TestFingerprintAllocs gates the fingerprint's garbage: the fields are
// framed into one buffer and hashed once, so a call allocates the digest
// string and little else — not a scratch buffer per field.
func TestFingerprintAllocs(t *testing.T) {
	cfg := Default()
	cfg.Faults, _ = FaultPreset("light")
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := cfg.Fingerprint(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("Fingerprint allocates %.0f times per call, want <= 4", allocs)
	}
	t.Logf("Fingerprint: %.0f allocs/call", allocs)
}
