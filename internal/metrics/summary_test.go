package metrics

import (
	"math"
	"testing"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []float64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %g, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %g/%g", s.Min(), s.Max())
	}
	// Sample variance of this classic dataset is 32/7.
	if !almostEq(s.Variance(), 32.0/7.0, 1e-12) {
		t.Fatalf("variance = %g, want %g", s.Variance(), 32.0/7.0)
	}
	if s.Sum() != 40 {
		t.Fatalf("sum = %g", s.Sum())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.StdDev() != 0 || s.CI95() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	var small, large Summary
	for i := 0; i < 10; i++ {
		small.Add(float64(i % 5))
	}
	for i := 0; i < 1000; i++ {
		large.Add(float64(i % 5))
	}
	if large.CI95() >= small.CI95() {
		t.Fatalf("CI95 did not shrink: %g vs %g", large.CI95(), small.CI95())
	}
}

func TestRelErr(t *testing.T) {
	cases := []struct {
		m, r, want float64
	}{
		{110, 100, 0.1},
		{90, 100, 0.1},
		{100, 100, 0},
		{0, 0, 0},
		{-50, 100, 1.5},
	}
	for _, c := range cases {
		if got := RelErr(c.m, c.r); !almostEq(got, c.want, 1e-12) {
			t.Errorf("RelErr(%g,%g) = %g, want %g", c.m, c.r, got, c.want)
		}
	}
	if !math.IsInf(RelErr(1, 0), 1) {
		t.Error("RelErr(1,0) should be +Inf")
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4, 16}); !almostEq(got, 4, 1e-12) {
		t.Fatalf("GeoMean = %g, want 4", got)
	}
	if GeoMean(nil) != 0 {
		t.Fatal("empty GeoMean should be 0")
	}
	if !math.IsNaN(GeoMean([]float64{1, -2})) {
		t.Fatal("GeoMean with negative input should be NaN")
	}
}
