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
	var s summary
	for _, v := range []int64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %g, want 5", s.Mean())
	}
	if s.Max() != 9 {
		t.Fatalf("max = %d", s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s summary
	if s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

func TestCI95ShrinksWithN(t *testing.T) {
	var small, large []float64
	for i := 0; i < 10; i++ {
		small = append(small, float64(i%5))
	}
	for i := 0; i < 1000; i++ {
		large = append(large, float64(i%5))
	}
	mean, ciSmall := MeanCI95(small)
	_, ciLarge := MeanCI95(large)
	if mean != 2 || ciLarge >= ciSmall {
		t.Fatalf("mean %g (want 2), CI95 did not shrink: %g vs %g", mean, ciLarge, ciSmall)
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
