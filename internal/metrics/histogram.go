package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
)

// latencyBuckets is the number of latency-histogram buckets: bucket 0 holds
// observations below 1, bucket i in 1..20 holds [2^(i-1), 2^i), and bucket 21
// the overflow at or above 2^20 cycles.
const latencyBuckets = 22

// Histogram is a power-of-two histogram over integer cycle counts with an
// exact Summary alongside the bucketed counts. Like the Summary, its state is
// a set of integer sums, so it does not depend on the order of the Adds. The
// zero value is an empty histogram ready to use, and a copy is a deep copy.
type Histogram struct {
	counts [latencyBuckets]uint64
	sum    Summary
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

// Merge folds o into h: afterwards h equals the histogram of both streams.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.sum.Merge(&o.sum)
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

// histogramJSON mirrors the unexported state for serialization; see the
// Summary codec for why.
type histogramJSON struct {
	Counts []uint64 `json:"counts"`
	Sum    Summary  `json:"sum"`
}

// MarshalJSON serializes the bucket counts and the exact summary.
func (h Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{Counts: h.counts[:], Sum: h.sum})
}

// UnmarshalJSON restores a histogram written by MarshalJSON, returning an
// error on a bucket count that is not the histogram's.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var j histogramJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if len(j.Counts) != latencyBuckets {
		return fmt.Errorf("metrics: histogram has %d counts, want %d", len(j.Counts), latencyBuckets)
	}
	*h = Histogram{sum: j.Sum}
	copy(h.counts[:], j.Counts)
	return nil
}
