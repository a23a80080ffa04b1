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
	if s.Max() != 9 {
		t.Fatalf("max = %d", s.Max())
	}
}

func TestSummaryEmpty(t *testing.T) {
	var s Summary
	if s.Mean() != 0 || s.Max() != 0 {
		t.Fatal("empty summary should report zeros")
	}
}

// TestSummaryMergeIsExact: a summary split at any point and merged back, in
// either order, equals the one built by adding in sequence, and survives a
// JSON round trip — for observations of either sign, with Σx past 64 bits.
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
	// Past 64 bits the mean stays exact: Σx = 3·2^62 overflows an int64.
	var s Summary
	for range 3 {
		s.Add(1 << 62)
	}
	if s.Mean() != 1<<62 {
		t.Fatalf("mean %g, want 2^62", s.Mean())
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
