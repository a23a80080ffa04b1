package metrics

import (
	"testing"
	"testing/quick"
)

func TestHistogramBuckets(t *testing.T) {
	h := NewHistogram([]float64{10, 20, 30})
	for _, v := range []int64{5, 9, 10, 15, 25, 30, 100} {
		h.Add(v)
	}
	// [-inf,10): 5, 9 → 2 ; [10,20): 10, 15 → 2 ; [20,30): 25 → 1 ;
	// [30,inf): 30, 100 → 2.
	want := []uint64{2, 2, 1, 2}
	for i, w := range want {
		if h.counts[i] != w {
			t.Fatalf("bucket %d = %d, want %d", i, h.counts[i], w)
		}
	}
	if h.Count() != 7 {
		t.Fatalf("count = %d", h.Count())
	}
	if len(h.counts) != 4 {
		t.Fatalf("%d buckets, want 4 (three bounds plus overflow)", len(h.counts))
	}
}

func TestHistogramExactMean(t *testing.T) {
	h := NewLatencyHistogram(10)
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
	h := NewHistogram([]float64{1, 2, 4, 8, 16, 32})
	for i := 0; i < 100; i++ {
		h.Add(3) // all in [2,4)
	}
	if p := h.ApproxPercentile(50); p != 4 {
		t.Fatalf("p50 = %g, want upper bound 4", p)
	}
	if p := h.ApproxPercentile(100); p != 4 {
		t.Fatalf("p100 = %g, want 4", p)
	}
	h.Add(1000) // lands in overflow
	if p := h.ApproxPercentile(100); p != 1000 {
		t.Fatalf("overflow percentile = %g, want exact max 1000", p)
	}
	var empty = NewHistogram([]float64{1})
	if empty.ApproxPercentile(99) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestHistogramPercentileMonotone(t *testing.T) {
	h := NewLatencyHistogram(12)
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

func TestHistogramInvalidBoundsPanic(t *testing.T) {
	for _, bounds := range [][]float64{nil, {}, {5, 5}, {5, 4}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("bounds %v did not panic", bounds)
				}
			}()
			NewHistogram(bounds)
		}()
	}
}
