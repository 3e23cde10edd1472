package loadgen

import (
	"math"
	"testing"
)

// TestHistogramExactQuantiles drives known distributions through the
// histogram and checks the quantiles exactly (values < 128 are exact) or
// within the 1/64 log-linear error bound.
func TestHistogramExactQuantiles(t *testing.T) {
	cases := []struct {
		name   string
		values []int64
		want   map[float64]int64 // quantile -> exact expected value
	}{
		{
			name:   "uniform 1..100",
			values: seq(1, 100),
			want:   map[float64]int64{0: 1, 0.5: 50, 0.9: 90, 0.99: 99, 0.999: 100, 1: 100},
		},
		{
			name:   "constant",
			values: repeat(42, 1000),
			want:   map[float64]int64{0: 42, 0.5: 42, 0.99: 42, 1: 42},
		},
		{
			name:   "bimodal outlier",
			values: append(repeat(1, 99), 1_000_000),
			// p99 rank is ceil(0.99*100) = 99 -> still 1; p1 of the tail
			// (q=0.999, rank 100) hits the outlier, clamped to the exact max.
			want: map[float64]int64{0.5: 1, 0.99: 1, 0.999: 1_000_000, 1: 1_000_000},
		},
		{
			name:   "small exact range",
			values: []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9},
			want:   map[float64]int64{0.1: 0, 0.5: 4, 1: 9},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			h := NewHistogram()
			for _, v := range tc.values {
				h.Record(v)
			}
			if got := h.Count(); got != int64(len(tc.values)) {
				t.Fatalf("Count = %d, want %d", got, len(tc.values))
			}
			for q, want := range tc.want {
				if got := h.Quantile(q); got != want {
					t.Errorf("Quantile(%g) = %d, want %d", q, got, want)
				}
			}
		})
	}
}

// TestHistogramErrorBound checks the log-linear guarantee on large values:
// the estimate never understates the true quantile and overstates by at
// most 1/64.
func TestHistogramErrorBound(t *testing.T) {
	h := NewHistogram()
	const n = 10000
	for i := 1; i <= n; i++ {
		h.Record(int64(i) * 997) // spread over several powers of two
	}
	for _, q := range []float64{0.5, 0.9, 0.99, 0.999} {
		rank := int64(math.Ceil(q * n))
		exact := rank * 997
		got := h.Quantile(q)
		if got < exact {
			t.Errorf("Quantile(%g) = %d understates exact %d", q, got, exact)
		}
		if limit := exact + exact/64 + 1; got > limit {
			t.Errorf("Quantile(%g) = %d exceeds error bound %d (exact %d)", q, got, limit, exact)
		}
	}
	if got := h.Max(); got != n*997 {
		t.Errorf("Max = %d, want %d", got, n*997)
	}
	if got, want := h.Mean(), float64(997)*(n+1)/2; math.Abs(got-want) > 1e-6 {
		t.Errorf("Mean = %g, want %g", got, want)
	}
}

// TestHistogramIndexRoundTrip: every value lands in a bucket whose upper
// bound covers it within the relative error bound.
func TestHistogramIndexRoundTrip(t *testing.T) {
	values := []int64{0, 1, 63, 64, 127, 128, 129, 1000, 4095, 4096, 1 << 20,
		(1 << 20) + 1, 1<<40 + 12345, 1<<62 - 1, 1 << 62}
	for _, v := range values {
		idx := histIndex(v)
		if idx < 0 || idx >= histBuckets {
			t.Fatalf("histIndex(%d) = %d out of range", v, idx)
		}
		hi := histHigh(idx)
		if hi < v {
			t.Errorf("histHigh(histIndex(%d)) = %d < value", v, hi)
		}
		if v >= histSubCount*2 && hi-v > v/histSubCount {
			t.Errorf("bucket bound %d for %d exceeds 1/%d relative error", hi, v, histSubCount)
		}
	}
}

// TestHistogramMerge: merging shards must equal recording everything into
// one histogram, bucket for bucket.
func TestHistogramMerge(t *testing.T) {
	whole := NewHistogram()
	parts := []*Histogram{NewHistogram(), NewHistogram(), NewHistogram()}
	for i := int64(0); i < 9999; i++ {
		v := (i * i) % 1_000_003
		whole.Record(v)
		parts[i%3].Record(v)
	}
	merged := NewHistogram()
	merged.Merge(parts[0])
	merged.Merge(parts[1])
	merged.Merge(parts[2])
	merged.Merge(NewHistogram()) // empty merge is a no-op

	if merged.Count() != whole.Count() {
		t.Fatalf("merged Count = %d, want %d", merged.Count(), whole.Count())
	}
	if merged.Min() != whole.Min() || merged.Max() != whole.Max() {
		t.Fatalf("merged min/max = %d/%d, want %d/%d",
			merged.Min(), merged.Max(), whole.Min(), whole.Max())
	}
	if merged.Mean() != whole.Mean() {
		t.Fatalf("merged Mean = %g, want %g", merged.Mean(), whole.Mean())
	}
	for q := 0.01; q <= 1.0; q += 0.01 {
		if got, want := merged.Quantile(q), whole.Quantile(q); got != want {
			t.Fatalf("merged Quantile(%g) = %d, want %d", q, got, want)
		}
	}
}

// TestHistogramEmptyAndNegative: edge behaviour.
func TestHistogramEmptyAndNegative(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.99) != 0 || h.Min() != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Record(-5) // clamps to zero
	if h.Count() != 1 || h.Min() != 0 || h.Quantile(1) != 0 {
		t.Fatalf("negative record: count %d min %d q1 %d", h.Count(), h.Min(), h.Quantile(1))
	}
}

func seq(lo, hi int64) []int64 {
	out := make([]int64, 0, hi-lo+1)
	for v := lo; v <= hi; v++ {
		out = append(out, v)
	}
	return out
}

func repeat(v int64, n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = v
	}
	return out
}
