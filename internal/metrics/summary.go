// Package metrics provides the statistics toolkit used by every simulator in
// onocsim: streaming summaries, histograms, confidence intervals, and the
// table/CSV writers that render the reconstructed paper experiments.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
)

// Summary accumulates a stream of float64 observations with O(1) memory
// using Welford's online algorithm. The zero value is an empty summary ready
// to use.
type Summary struct {
	n    uint64
	mean float64
	m2   float64
	min  float64
	max  float64
	sum  float64
}

// Add records one observation.
func (s *Summary) Add(x float64) {
	s.n++
	s.sum += x
	if s.n == 1 {
		s.min, s.max = x, x
	} else {
		if x < s.min {
			s.min = x
		}
		if x > s.max {
			s.max = x
		}
	}
	d := x - s.mean
	s.mean += d / float64(s.n)
	s.m2 += d * (x - s.mean)
}

// Count returns the number of observations.
func (s *Summary) Count() uint64 { return s.n }

// Sum returns the sum of all observations.
func (s *Summary) Sum() float64 { return s.sum }

// Mean returns the arithmetic mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.mean
}

// Min returns the smallest observation, or 0 for an empty summary.
func (s *Summary) Min() float64 { return s.min }

// Max returns the largest observation, or 0 for an empty summary.
func (s *Summary) Max() float64 { return s.max }

// Variance returns the unbiased sample variance, or 0 with fewer than two
// observations.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	return s.m2 / float64(s.n-1)
}

// StdDev returns the sample standard deviation.
func (s *Summary) StdDev() float64 { return math.Sqrt(s.Variance()) }

// CI95 returns the half-width of the 95% confidence interval of the mean
// under the normal approximation.
func (s *Summary) CI95() float64 {
	if s.n < 2 {
		return 0
	}
	return 1.96 * s.StdDev() / math.Sqrt(float64(s.n))
}

// String renders a compact human-readable summary.
func (s *Summary) String() string {
	return fmt.Sprintf("n=%d mean=%.3f min=%.3f max=%.3f sd=%.3f",
		s.n, s.Mean(), s.min, s.max, s.StdDev())
}

// summaryJSON mirrors the unexported accumulator state so summaries survive
// serialization (the simulation result cache persists stats blocks across
// process invocations). Every field is finite in every reachable state — the
// zero value keeps min/max at 0 rather than ±Inf — so encoding/json can
// always represent it.
type summaryJSON struct {
	N    uint64  `json:"n"`
	Mean float64 `json:"mean"`
	M2   float64 `json:"m2"`
	Min  float64 `json:"min"`
	Max  float64 `json:"max"`
	Sum  float64 `json:"sum"`
}

// MarshalJSON serializes the full accumulator state.
func (s Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(summaryJSON{N: s.n, Mean: s.mean, M2: s.m2, Min: s.min, Max: s.max, Sum: s.sum})
}

// UnmarshalJSON restores a summary written by MarshalJSON.
func (s *Summary) UnmarshalJSON(data []byte) error {
	var j summaryJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	*s = Summary{n: j.N, mean: j.Mean, m2: j.M2, min: j.Min, max: j.Max, sum: j.Sum}
	return nil
}

// RelErr returns the relative error |measured-reference|/|reference|,
// reported as a fraction (multiply by 100 for percent). A zero reference
// with nonzero measurement yields +Inf; zero/zero yields 0.
func RelErr(measured, reference float64) float64 {
	if reference == 0 {
		if measured == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return math.Abs(measured-reference) / math.Abs(reference)
}

// GeoMean returns the geometric mean of strictly positive values; any
// non-positive value makes the result NaN, surfacing the misuse.
func GeoMean(values []float64) float64 {
	if len(values) == 0 {
		return 0
	}
	acc := 0.0
	for _, v := range values {
		if v <= 0 {
			return math.NaN()
		}
		acc += math.Log(v)
	}
	return math.Exp(acc / float64(len(values)))
}
