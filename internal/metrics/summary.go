// Package metrics provides the statistics toolkit used by every simulator in
// onocsim: streaming summaries, histograms, confidence intervals, and the
// table/CSV writers that render the reconstructed paper experiments.
package metrics

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/bits"
)

// Summary accumulates a stream of integer observations (cycle counts) with
// O(1) memory: the count, Σx and Σx² as exact 128-bit integers, and the
// extremes. Every field is an integer, so the state does not depend on the
// order of the Adds, and Merge of two summaries is exactly the summary of
// both streams — which is what lets sharded replicas' statistics add up to the
// serial run's. The sums overflow only past 2^127. The zero value is an empty
// summary ready to use.
type Summary struct {
	n          uint64
	sum, sumSq int128
	min, max   int64
}

// int128 is a two's-complement 128-bit integer.
type int128 struct{ hi, lo uint64 }

func (a int128) plus(b int128) int128 {
	lo, carry := bits.Add64(a.lo, b.lo, 0)
	hi, _ := bits.Add64(a.hi, b.hi, carry)
	return int128{hi, lo}
}

// big returns a as a big.Int.
func (a int128) big() *big.Int {
	b := big.NewInt(int64(a.hi))
	b.Lsh(b, 64)
	return b.Add(b, new(big.Int).SetUint64(a.lo))
}

// float returns a rounded to the nearest float64.
func (a int128) float() float64 {
	if a.hi == uint64(int64(a.lo)>>63) { // fits in 64 bits
		return float64(int64(a.lo))
	}
	f, _ := new(big.Float).SetInt(a.big()).Float64()
	return f
}

// int128Of converts b, nil meaning zero.
func int128Of(b *big.Int) (int128, error) {
	if b == nil {
		return int128{}, nil
	}
	if b.BitLen() > 127 {
		return int128{}, fmt.Errorf("metrics: summary sum %v overflows 128 bits", b)
	}
	lo := new(big.Int).And(b, new(big.Int).SetUint64(math.MaxUint64)).Uint64()
	return int128{uint64(new(big.Int).Rsh(b, 64).Int64()), lo}, nil
}

// Add records one observation.
func (s *Summary) Add(x int64) {
	if s.n == 0 || x < s.min {
		s.min = x
	}
	if s.n == 0 || x > s.max {
		s.max = x
	}
	s.n++
	s.sum = s.sum.plus(int128{uint64(x >> 63), uint64(x)})
	u := uint64(x)
	if x < 0 {
		u = -u
	}
	hi, lo := bits.Mul64(u, u)
	s.sumSq = s.sumSq.plus(int128{hi, lo})
}

// Merge folds o into s: afterwards s equals the summary that Adding both
// streams, in any order, would have built.
func (s *Summary) Merge(o *Summary) {
	if o.n == 0 {
		return
	}
	if s.n == 0 {
		*s = *o
		return
	}
	s.n += o.n
	s.sum = s.sum.plus(o.sum)
	s.sumSq = s.sumSq.plus(o.sumSq)
	s.min = min(s.min, o.min)
	s.max = max(s.max, o.max)
}

// Count returns the number of observations.
func (s *Summary) Count() uint64 { return s.n }

// Mean returns the arithmetic mean, or 0 for an empty summary.
func (s *Summary) Mean() float64 {
	if s.n == 0 {
		return 0
	}
	return s.sum.float() / float64(s.n)
}

// Min returns the smallest observation, or 0 for an empty summary.
func (s *Summary) Min() int64 { return s.min }

// Max returns the largest observation, or 0 for an empty summary.
func (s *Summary) Max() int64 { return s.max }

// Variance returns the unbiased sample variance, (nΣx² − (Σx)²) / (n(n−1))
// rounded once, or 0 with fewer than two observations.
func (s *Summary) Variance() float64 {
	if s.n < 2 {
		return 0
	}
	n := new(big.Int).SetUint64(s.n)
	sum := s.sum.big()
	num := new(big.Int).Mul(n, s.sumSq.big())
	num.Sub(num, sum.Mul(sum, sum))
	den := n.Mul(n, new(big.Int).SetUint64(s.n-1))
	v, _ := new(big.Rat).SetFrac(num, den).Float64()
	return v
}

// summaryJSON mirrors the unexported accumulator state so summaries survive
// serialization (the simulation result cache persists stats blocks across
// process invocations). The sums are JSON integers of any width.
type summaryJSON struct {
	N     uint64   `json:"n"`
	Sum   *big.Int `json:"sum"`
	SumSq *big.Int `json:"sum_sq"`
	Min   int64    `json:"min"`
	Max   int64    `json:"max"`
}

// MarshalJSON serializes the full accumulator state.
func (s Summary) MarshalJSON() ([]byte, error) {
	return json.Marshal(summaryJSON{N: s.n, Sum: s.sum.big(), SumSq: s.sumSq.big(), Min: s.min, Max: s.max})
}

// UnmarshalJSON restores a summary written by MarshalJSON.
func (s *Summary) UnmarshalJSON(data []byte) error {
	var j summaryJSON
	if err := json.Unmarshal(data, &j); err != nil {
		return err
	}
	sum, err := int128Of(j.Sum)
	if err != nil {
		return err
	}
	sumSq, err := int128Of(j.SumSq)
	if err != nil {
		return err
	}
	*s = Summary{n: j.N, sum: sum, sumSq: sumSq, min: j.Min, max: j.Max}
	return nil
}

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
