package config

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
)

// fingerprintVersion is folded into every fingerprint so that adding or
// re-interpreting a config field invalidates previously persisted results
// instead of silently colliding with them. Bump it whenever the set of
// hashed fields (or their meaning) changes.
const fingerprintVersion = 4

// Fingerprint returns a canonical, collision-resistant identity for a
// validated configuration: two configs share a fingerprint exactly when
// every simulation-relevant field is equal. The hash is computed over an
// explicit, fixed field ordering (not struct memory or JSON output), so it
// is stable across process runs, architectures, and incidental struct
// reshuffles — which is what makes it usable as a cross-invocation disk
// cache key.
//
// Name is deliberately excluded: it labels reports and does not influence
// simulation results. Parallelism is excluded for the same reason — a
// replay is byte-identical for any shard count and any sufficient read-ahead
// window, so folding either in would only split the cache for equal results
// (and excluding them keeps fingerprints, hence persisted disk caches,
// stable across the settings). Everything else — seed, system
// geometry, all fabric parameters, workload, SCTM knobs and faults — is
// included.
func (c *Config) Fingerprint() (string, error) {
	if err := c.Validate(); err != nil {
		return "", fmt.Errorf("config: fingerprint of invalid config: %w", err)
	}
	w := &fpWriter{buf: make([]byte, 0, 512)}
	w.str("onocsim-fingerprint")
	w.u64(fingerprintVersion)

	w.u64(c.Seed)
	s := &c.System
	w.ints(s.Cores, s.L2SetsPerBank, s.L2Ways, s.MemPorts)

	m := &c.Mesh
	w.str(m.Topology)
	w.ints(m.VCs)
	w.str(m.Routing)

	o := &c.Optical
	w.str(o.Architecture)
	w.ints(o.WavelengthsPerChannel)

	w.ints(c.Hybrid.Threshold)

	wl := &c.Workload
	w.str(string(wl.Kind))
	w.str(wl.Pattern)
	w.f64(wl.InjectionRate)
	w.ints(wl.PacketBytes, wl.Packets)
	w.str(wl.Kernel)
	w.ints(wl.Scale, wl.Iterations)
	w.f64(wl.ComputeScale)
	w.f64(wl.Jitter)

	t := &c.SCTM
	w.ints(t.MaxIterations)
	w.f64(t.MakespanTolerance)
	w.bools(t.DisableSyncDeps, t.DisableCausalDeps)
	// "zeroload" hashes as the empty default it spells: one mode, one key.
	if t.Seed == "zeroload" {
		w.str("")
	} else {
		w.str(t.Seed)
	}
	// SCTM.Incremental is deliberately NOT hashed: like Parallelism, it is a
	// pure execution detail — the incremental loop is byte-identical to the
	// full-replay loop — so both modes address the same cached result.

	w.str(string(c.Network))
	w.i64s(c.MaxCycles)

	f := &c.Faults
	w.i64s(f.ThermalMTBF, f.ThermalDuration)
	w.f64(f.ThermalDetune)
	w.i64s(f.TokenMTBF, f.TokenTimeout)
	w.f64(f.LaserDroopDB)

	sum := sha256.Sum256(w.buf)
	return hex.EncodeToString(sum[:]), nil
}

// fpWriter frames primitives canonically into one buffer, hashed once at the
// end. Strings are length-prefixed so adjacent fields cannot alias ("ab","c"
// vs "a","bc"); numerics are fixed-width little-endian.
type fpWriter struct{ buf []byte }

func (w *fpWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }

func (w *fpWriter) str(s string) {
	w.u64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

func (w *fpWriter) ints(vs ...int) {
	for _, v := range vs {
		w.u64(uint64(int64(v)))
	}
}

func (w *fpWriter) i64s(vs ...int64) {
	for _, v := range vs {
		w.u64(uint64(v))
	}
}

// Validated configs never hold NaN, and the sign of zero does not influence
// any model, so raw IEEE bits are canonical enough.
func (w *fpWriter) f64(v float64) { w.u64(math.Float64bits(v)) }

func (w *fpWriter) bools(vs ...bool) {
	for _, v := range vs {
		if v {
			w.u64(1)
		} else {
			w.u64(0)
		}
	}
}
