package metrics

import (
	"encoding/json"
	"math"
	"reflect"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	if math.IsNaN(a) || math.IsNaN(b) {
		return false
	}
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}

func TestSummaryBasics(t *testing.T) {
	var s Summary
	for _, v := range []int64{2, 4, 4, 4, 5, 5, 7, 9} {
		s.Add(v)
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d", s.Count())
	}
	if s.Mean() != 5 {
		t.Fatalf("mean = %g, want 5", s.Mean())
	}
	if s.Min() != 2 || s.Max() != 9 {
		t.Fatalf("min/max = %d/%d", s.Min(), s.Max())
	}
	// Sample variance of this classic dataset is 32/7, rounded once.
	if s.Variance() != 32.0/7.0 {
		t.Fatalf("variance = %g, want %g", s.Variance(), 32.0/7.0)
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Variance() != 0 || s.Min() != 0 || s.Max() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

// TestSummaryMergeIsExact: a summary split at any point and merged back, in
// either order, equals the one built by adding in sequence, and survives a
// JSON round trip — for observations of either sign, with Σx and Σx² past 64
// bits.
func TestSummaryMergeIsExact(t *testing.T) {
	if err := quick.Check(func(vs []int32, cut uint) bool {
		xs := []int64{1 << 62, 1 << 62, -1 << 40}
		for _, v := range vs {
			xs = append(xs, int64(v)<<16)
		}
		k := int(cut % uint(len(xs)+1))
		var all, a, b Summary
		for i, x := range xs {
			all.Add(x)
			if i < k {
				a.Add(x)
			} else {
				b.Add(x)
			}
		}
		ab, ba := a, b
		ab.Merge(&b)
		ba.Merge(&a)
		var back Summary
		data, err := json.Marshal(all)
		if err != nil || json.Unmarshal(data, &back) != nil {
			return false
		}
		return reflect.DeepEqual(ab, all) && reflect.DeepEqual(ba, all) && reflect.DeepEqual(back, all)
	}, nil); err != nil {
		t.Fatal(err)
	}
	// Past 64 bits the moments stay exact: 1e12 ± 1 has variance 1.
	var s Summary
	for _, x := range []int64{1e12 - 1, 1e12, 1e12 + 1} {
		s.Add(x)
	}
	if s.Mean() != 1e12 || s.Variance() != 1 {
		t.Fatalf("mean %g variance %g, want 1e12 and 1", s.Mean(), s.Variance())
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
