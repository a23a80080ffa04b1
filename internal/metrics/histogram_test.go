package metrics

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

// searchBucket is the bucket rule the histogram replaced and is held to: a
// binary search for the first of the bounds 1, 2, 4, …, 2^20 greater than x,
// the overflow bucket when there is none.
func searchBucket(x int64) int {
	var bounds [latencyBuckets - 1]float64
	for i := range bounds {
		bounds[i] = math.Pow(2, float64(i))
	}
	v := float64(x)
	lo, hi := 0, len(bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if v < bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// TestLatencyBucketMatchesSearch holds the power-of-two bucket rule to the
// search over the bounds: at and beside every power of two, for x ≤ 0 and
// for random values of every width.
func TestLatencyBucketMatchesSearch(t *testing.T) {
	xs := []int64{math.MinInt64, -1 << 40, -2, -1, 0, math.MaxInt64}
	for k := 0; k < 64; k++ {
		p := uint64(1) << k
		xs = append(xs, int64(p-1), int64(p), int64(p+1))
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 10_000; i++ {
		xs = append(xs, rng.Int63()>>rng.Intn(63), -rng.Int63())
	}
	for _, x := range xs {
		if got, want := bucket(x), searchBucket(x); got != want {
			t.Fatalf("bucket(%d) = %d, the search picks %d", x, got, want)
		}
	}
}

func TestHistogramExactMean(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 100; i++ {
		h.Add(i)
	}
	if got := h.Mean(); got != 50.5 {
		t.Fatalf("mean = %g, want exact 50.5", got)
	}
	if h.sum.Max() != 100 {
		t.Fatalf("max = %d", h.sum.Max())
	}
}

func TestHistogramPercentileConservative(t *testing.T) {
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Add(3) // all in [2,4)
	}
	if p := h.ApproxPercentile(50); p != 4 {
		t.Fatalf("p50 = %g, want upper bound 4", p)
	}
	if p := h.ApproxPercentile(100); p != 4 {
		t.Fatalf("p100 = %g, want 4", p)
	}
	h.Add(3 << 20) // lands in overflow
	if p := h.ApproxPercentile(100); p != 3<<20 {
		t.Fatalf("overflow percentile = %g, want exact max %d", p, 3<<20)
	}
	var empty Histogram
	if empty.ApproxPercentile(99) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	var h Histogram
	if err := quick.Check(func(vals []uint16) bool {
		for _, v := range vals {
			h.Add(int64(v))
		}
		prev := 0.0
		for p := 0.0; p <= 100; p += 10 {
			v := h.ApproxPercentile(p)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
