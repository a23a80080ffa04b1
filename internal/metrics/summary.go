// Package metrics provides the statistics toolkit of onocsim's reports: a
// latency histogram for whoever receives a delivery stream, confidence
// intervals, and the table/CSV writers that render the reconstructed paper
// experiments.
package metrics

import "math"

// summary accumulates a stream of integer observations (cycle counts) with
// O(1) memory: the count, Σx and the maximum. Every field is an integer, so
// the state does not depend on the order of the Adds. The zero value is an
// empty summary ready to use.
type summary struct {
	n   uint64
	sum int64
	max int64
}

// Add records one observation.
func (s *summary) Add(x int64) {
	if s.n == 0 || x > s.max {
		s.max = x
	}
	s.n++
	s.sum += x
}

// Count returns the number of observations.
func (s *summary) Count() uint64 { return s.n }

// Mean returns the arithmetic mean, or 0 for an empty summary.
func (s *summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return float64(s.sum) / float64(s.n)
}

// Max returns the largest observation, or 0 for an empty summary.
func (s *summary) Max() int64 { return s.max }

// MeanCI95 returns the mean of xs (at least two values) and the half-width
// of its 95% confidence interval under the normal approximation — for the
// few non-integer samples a study repeats, such as one error per seed.
func MeanCI95(xs []float64) (mean, ci float64) {
	n := float64(len(xs))
	for _, x := range xs {
		mean += x
	}
	mean /= n
	var ss float64
	for _, x := range xs {
		ss += (x - mean) * (x - mean)
	}
	return mean, 1.96 * math.Sqrt(ss/(n-1)) / math.Sqrt(n)
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
