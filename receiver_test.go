package onocsim

import (
	"fmt"
	"math"
	"testing"
)

// TestReceiverLatencySummaries pins, bit for bit, the latency summaries the
// product reports from a delivery stream: the execution-driven ground
// truth's mean and per-class latency and the open-loop synthetic run's mean
// and p99, on a small config over the six fabric kinds. Whoever computes
// them — the fabric or the receiver — must reproduce these floats exactly.
func TestReceiverLatencySummaries(t *testing.T) {
	base := smallConfig()
	base.Workload.InjectionRate = 0.2
	base.Workload.Packets = 40
	torus, swmr := base, base
	torus.Mesh.Topology, torus.Mesh.VCs = "torus", 6
	swmr.Optical.Architecture = "swmr"
	rows := []struct {
		name string
		cfg  Config
		kind NetworkKind
		// truth holds the ground truth's MeanLatency and ClassLatency
		// (request, response, writeback); synth the synthetic run's
		// MeanLatency and P99Latency, all as float64 bits.
		truth [4]uint64
		synth [2]uint64
	}{
		{"mesh", base, Electrical,
			[4]uint64{0x402b888888888889, 0x402653b92840670b, 0x402fefe1a8c536fe, 0x4028477ed8caf478},
			[2]uint64{0x4032e86666666666, 0x4050000000000000}},
		{"torus", torus, Electrical,
			[4]uint64{0x4027473e380b661d, 0x40227588daf7f31f, 0x402ac1c7f499e28e, 0x4025ba7f6bba7f6c},
			[2]uint64{0x402db1999999999a, 0x4050000000000000}},
		{"ideal", base, IdealNet,
			[4]uint64{0x4034fa5504b926bb, 0x40335375f7f99477, 0x4036337bbfc38add, 0x40345e22708092f1},
			[2]uint64{0x40375c0000000000, 0x4040000000000000}},
		{"mwsr", base, Optical,
			[4]uint64{0x4032bf4aa09724d7, 0x403169ee58469ee6, 0x403451b6513d66f7, 0x4030d586505bd6ac},
			[2]uint64{0x403c206666666666, 0x4050000000000000}},
		{"swmr", swmr, Optical,
			[4]uint64{0x4027412e49aec299, 0x40226382cf0c09a1, 0x402b8078ea45e770, 0x4023e472cc573f24},
			[2]uint64{0x403068cccccccccd, 0x4040000000000000}},
		{"hybrid", base, Hybrid,
			[4]uint64{0x402a28ac42fd9b84, 0x4025e62860e89498, 0x402debe71e2552c8, 0x40271e88385df1e9},
			[2]uint64{0x4030cecccccccccd, 0x4050000000000000}},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			t.Parallel()
			gt, err := uncached.RunExecutionDrivenContext(bg, r.cfg, r.kind)
			if err != nil {
				t.Fatal(err)
			}
			syn, err := syntheticLoad(bg, r.cfg, r.kind)
			if err != nil {
				t.Fatal(err)
			}
			truth := [4]uint64{math.Float64bits(gt.MeanLatency)}
			for c, l := range gt.ClassLatency {
				truth[1+c] = math.Float64bits(l)
			}
			synth := [2]uint64{math.Float64bits(syn.MeanLatency), math.Float64bits(syn.P99Latency)}
			if truth != r.truth || synth != r.synth {
				t.Errorf("truth mean %v class %v, synthetic mean %v p99 %v\ngot  %s, %s\nwant %s, %s",
					gt.MeanLatency, gt.ClassLatency, syn.MeanLatency, syn.P99Latency,
					hexBits(truth[:]), hexBits(synth[:]), hexBits(r.truth[:]), hexBits(r.synth[:]))
			}
		})
	}
}

// hexBits renders float64 bit patterns as a Go composite-literal body.
func hexBits(bs []uint64) string {
	s := ""
	for i, b := range bs {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%#016x", b)
	}
	return s
}
