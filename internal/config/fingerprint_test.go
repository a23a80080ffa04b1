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

// TestFingerprintPinned pins the exact digests of the two workhorse configs:
// a change to the hashed fields or their framing must bump
// fingerprintVersion, since every persisted cache key moves with it.
func TestFingerprintPinned(t *testing.T) {
	cfg := Default()
	if got, want := fp(t, cfg), "ab25aa4506a5c6fe67d647ff03b551f64530f7a846e459ba85d66327a839906c"; got != want {
		t.Errorf("Default() fingerprint = %s, want %s", got, want)
	}
	cfg.Network = NetOptical
	if got, want := fp(t, cfg), "c47349a6e29eeb30d3e315c30965e72a2aad4fe867034eb7ea3cab066f5d801d"; got != want {
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

// TestFingerprintSeedModeCompatibility checks that the two spellings of the
// default seed mode, "" and "zeroload", share one fingerprint, hence one
// cached result, and that "coupled" hashes apart from them.
func TestFingerprintSeedModeCompatibility(t *testing.T) {
	hash := map[string]string{}
	for _, mode := range []string{"", "zeroload", "coupled"} {
		c := Default()
		c.SCTM.Seed = mode
		hash[mode] = fp(t, c)
	}
	if hash["zeroload"] != hash[""] {
		t.Error(`seed mode "zeroload" hashes apart from the empty default it spells`)
	}
	if hash["coupled"] == hash[""] {
		t.Error(`seed mode "coupled" collides with the default`)
	}
}

// TestValidateSeedMode checks the seed modes a document may name: zeroload
// and coupled. The constant and analytic seeds are gone, so a document asking
// for one — by mode or by the constant's initial_latency_cycles — is refused,
// naming the key; so is one asking for incremental correction rounds.
func TestValidateSeedMode(t *testing.T) {
	cases := []struct {
		name string
		sctm string // the document's sctm section
		want string // substring of the error, "" for valid
	}{
		{"default", `{}`, ""},
		{"zeroload", `{"seed":"zeroload"}`, ""},
		{"coupled", `{"seed":"coupled"}`, ""},
		{"analytic", `{"seed":"analytic"}`, `sctm.seed="analytic"`},
		{"unknown mode", `{"seed":"psychic"}`, "sctm.seed"},
		{"fixed without cycles", `{"seed":"fixed"}`, "sctm.seed"},
		{"fixed with cycles", `{"seed":"fixed","initial_latency_cycles":10}`, `"initial_latency_cycles"`},
		{"zeroload with cycles", `{"seed":"zeroload","initial_latency_cycles":10}`, `"initial_latency_cycles"`},
		{"analytic with cycles", `{"seed":"analytic","initial_latency_cycles":10}`, `"initial_latency_cycles"`},
		{"incremental", `{"incremental":true}`, "sctm.incremental"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Parse([]byte(`{"sctm":` + c.sctm + `}`))
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

// TestSeedModeResolution pins the resolution of the empty mode.
func TestSeedModeResolution(t *testing.T) {
	var s SCTM
	if got := s.SeedMode(); got != "zeroload" {
		t.Errorf("empty SCTM seed mode = %q, want zeroload", got)
	}
	s.Seed = "coupled"
	if got := s.SeedMode(); got != "coupled" {
		t.Errorf("explicit seed mode = %q, want coupled", got)
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
