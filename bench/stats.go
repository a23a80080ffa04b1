package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of v.
func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// quartiles returns the first quartile, median and third quartile of v by
// the rule of Python's statistics.quantiles(v, n=4) (the "exclusive"
// method), so a spread printed here is the one the benchmark driver computes
// from the same values. Fewer than two values have no spread: all three are
// the single value (or 0 for none).
func quartiles(v []float64) (q1, med, q3 float64) {
	s := sorted(v)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

func median(v []float64) float64 {
	_, m, _ := quartiles(v)
	return m
}

// spread is the interquartile distance as a share of the median: the
// steadiness figure every bound in BENCHMARK.json is judged against.
func spread(v []float64) float64 {
	q1, m, q3 := quartiles(v)
	if m == 0 {
		return 0
	}
	return math.Abs((q3 - q1) / m)
}

// percentile returns the nearest-rank p-quantile (0 < p <= 1) of an
// ascending slice; latency tails are read off real samples, never
// interpolated.
func percentile(ascending []float64, p float64) float64 {
	if len(ascending) == 0 {
		return 0
	}
	i := int(math.Ceil(p*float64(len(ascending)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(ascending) {
		i = len(ascending) - 1
	}
	return ascending[i]
}
