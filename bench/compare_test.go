package main

import (
	"math"
	"testing"
)

// quartiles must agree with Python's statistics.quantiles(v, n=4), which is
// what the benchmark driver judges spreads with.
func TestQuartilesMatchPythonExclusive(t *testing.T) {
	q1, med, q3 := quartiles([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if q1, med, q3 = quartiles([]float64{3}); q1 != 3 || med != 3 || q3 != 3 {
		t.Fatalf("quartiles of one value = %v %v %v", q1, med, q3)
	}
	if s := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); math.Abs(s-1) > 1e-12 {
		t.Fatalf("spread = %v, want 1", s)
	}
}

func TestPercentileNearestRank(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if p := percentile(v, 0.5); p != 5 {
		t.Errorf("p50 = %v, want 5", p)
	}
	if p := percentile(v, 0.999); p != 10 {
		t.Errorf("p99.9 = %v, want 10", p)
	}
}

func TestVerdict(t *testing.T) {
	lower := metricSpec{Name: "pass_s", Better: "lower", Bound: 0.10}
	higher := metricSpec{Name: "work_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{1.00, 1.01, 0.99, 1.00}
	cases := []struct {
		name string
		m    metricSpec
		a, b []float64
		want string
	}{
		{"same", lower, steady, steady, "ok"},
		{"slower within bound", lower, steady, []float64{1.05, 1.06, 1.04, 1.05}, "ok"},
		{"slower beyond bound", lower, steady, []float64{1.20, 1.21, 1.19, 1.20}, "regressed"},
		{"throughput drop", higher, steady, []float64{0.80, 0.81, 0.79, 0.80}, "regressed"},
		{"throughput gain", higher, steady, []float64{1.30, 1.31, 1.29, 1.30}, "ok"},
		{"noisy and interleaved", lower, []float64{1.0, 1.4, 0.8, 1.2}, []float64{1.3, 0.9, 1.5, 1.1}, "unresolved"},
		{"noisy but every run worse", lower, []float64{1.0, 1.4, 0.8, 1.2}, []float64{2.0, 2.6, 1.8, 2.2}, "regressed"},
		{"noisy but every run better", lower, []float64{1.0, 1.4, 0.8, 1.2}, []float64{0.5, 0.7, 0.4, 0.6}, "ok"},
	}
	for _, c := range cases {
		if _, got := c.m.verdict(c.a, c.b); got != c.want {
			t.Errorf("%s: verdict %q, want %q", c.name, got, c.want)
		}
	}
}
