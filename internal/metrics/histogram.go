package metrics

import (
	"math"
	"math/bits"
)

// latencyBuckets is the number of latency-histogram buckets: bucket 0 holds
// observations below 1, bucket i in 1..20 holds [2^(i-1), 2^i), and bucket 21
// the overflow at or above 2^20 cycles.
const latencyBuckets = 22

// Histogram is a power-of-two histogram over integer cycle counts with an
// exact summary alongside the bucketed counts. Like the summary, its state is
// a set of integer sums, so it does not depend on the order of the Adds. The
// zero value is an empty histogram ready to use, and a copy is a deep copy.
type Histogram struct {
	counts [latencyBuckets]uint64
	sum    summary
}

// bucket returns the bucket x lands in: the index of the first bound 2^i
// greater than x, or the overflow bucket past 2^20.
func bucket(x int64) int {
	return min(bits.Len64(uint64(max(x, 0))), latencyBuckets-1)
}

// Add records one observation.
func (h *Histogram) Add(x int64) {
	h.sum.Add(x)
	h.counts[bucket(x)]++
}

// Mean returns the exact (not bucketed) mean of the observations.
func (h *Histogram) Mean() float64 { return h.sum.Mean() }

// ApproxPercentile estimates the p-th percentile from bucket boundaries,
// attributing each bucket's mass to its upper bound (conservative for
// latency SLO-style reporting); the overflow bucket's bound is the exact max,
// which is also the answer for an empty histogram: 0.
func (h *Histogram) ApproxPercentile(p float64) float64 {
	p = min(max(p, 0), 100)
	target := max(uint64(math.Ceil(p/100*float64(h.sum.Count()))), 1)
	var cum uint64
	for i, c := range h.counts[:latencyBuckets-1] {
		if cum += c; cum >= target {
			return float64(uint64(1) << i)
		}
	}
	return float64(h.sum.Max())
}
