package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"slices"
)

// Histogram is a fixed-boundary histogram over integer observations with an
// exact Summary alongside the bucketed counts. Buckets are half-open
// intervals [bound[i-1], bound[i]); observations below the first bound land
// in bucket 0 and observations at or above the last bound land in the
// overflow bucket. Like the Summary, its state is a set of integer sums, so
// it does not depend on the order of the Adds.
type Histogram struct {
	bounds []float64
	counts []uint64
	sum    Summary
}

// NewHistogram builds a histogram with the given ascending bucket
// boundaries. It panics on empty or non-ascending boundaries: a histogram
// that silently merges buckets would corrupt every latency distribution
// derived from it.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("metrics: histogram needs at least one bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic(fmt.Sprintf("metrics: histogram bounds not ascending at %d", i))
		}
	}
	b := make([]float64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]uint64, len(bounds)+1)}
}

// NewLatencyHistogram returns a histogram with exponentially spaced bounds
// suited to network latencies in cycles: 1, 2, 4, ..., 2^maxExp.
func NewLatencyHistogram(maxExp int) *Histogram {
	if maxExp < 1 {
		maxExp = 1
	}
	bounds := make([]float64, maxExp+1)
	for i := 0; i <= maxExp; i++ {
		bounds[i] = math.Pow(2, float64(i))
	}
	return NewHistogram(bounds)
}

// Add records one observation.
func (h *Histogram) Add(x int64) {
	h.sum.Add(x)
	// Binary search for the first bound > x.
	v := float64(x)
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v < h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	h.counts[lo]++
}

// Merge folds o, which must have the same bounds, into h: afterwards h equals
// the histogram of both streams. It panics on different bounds, for the same
// reason NewHistogram panics on bad ones.
func (h *Histogram) Merge(o *Histogram) {
	if !slices.Equal(h.bounds, o.bounds) {
		panic("metrics: merging histograms with different bounds")
	}
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.sum.Merge(&o.sum)
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 { return h.sum.Count() }

// Mean returns the exact (not bucketed) mean of the observations.
func (h *Histogram) Mean() float64 { return h.sum.Mean() }

// ApproxPercentile estimates the p-th percentile from bucket boundaries,
// attributing each bucket's mass to its upper bound (conservative for
// latency SLO-style reporting).
func (h *Histogram) ApproxPercentile(p float64) float64 {
	total := h.sum.Count()
	if total == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 100 {
		p = 100
	}
	target := uint64(math.Ceil(p / 100 * float64(total)))
	if target == 0 {
		target = 1
	}
	var cum uint64
	for i, c := range h.counts {
		cum += c
		if cum >= target {
			if i < len(h.bounds) {
				return h.bounds[i]
			}
			break
		}
	}
	return float64(h.sum.Max())
}

// histogramJSON mirrors the unexported state for serialization; see the
// Summary codec for why.
type histogramJSON struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    Summary   `json:"sum"`
}

// MarshalJSON serializes bounds, bucket counts, and the exact summary.
func (h *Histogram) MarshalJSON() ([]byte, error) {
	return json.Marshal(histogramJSON{Bounds: h.bounds, Counts: h.counts, Sum: h.sum})
}

// UnmarshalJSON restores a histogram written by MarshalJSON. It enforces the
// same structural invariants as NewHistogram, returning an error instead of
// panicking on corrupt input.
func (h *Histogram) UnmarshalJSON(data []byte) error {
	var j histogramJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	if len(j.Bounds) == 0 {
		return fmt.Errorf("metrics: histogram with no bounds")
	}
	for i := 1; i < len(j.Bounds); i++ {
		if j.Bounds[i] <= j.Bounds[i-1] {
			return fmt.Errorf("metrics: histogram bounds not ascending at %d", i)
		}
	}
	if len(j.Counts) != len(j.Bounds)+1 {
		return fmt.Errorf("metrics: histogram has %d counts for %d bounds", len(j.Counts), len(j.Bounds))
	}
	*h = Histogram{bounds: j.Bounds, counts: j.Counts, sum: j.Sum}
	return nil
}

// Clone returns an independent deep copy of the histogram: mutating either
// copy leaves the other untouched. The checkpoint machinery relies on this to
// snapshot a fabric's statistics block mid-run.
func (h *Histogram) Clone() *Histogram {
	return &Histogram{bounds: slices.Clone(h.bounds), counts: slices.Clone(h.counts), sum: h.sum}
}
