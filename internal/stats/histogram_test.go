package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
)

// TestBucketMonotone checks the bucket index is monotone and the midpoint
// stays inside the bucket's value range.
func TestBucketMonotone(t *testing.T) {
	prev := -1
	for _, v := range []int64{0, 1, 2, 15, 16, 17, 31, 32, 63, 64, 100, 1000, 1 << 20, 1 << 40, 1 << 55} {
		idx := bucketOf(v)
		if idx < prev {
			t.Fatalf("bucketOf(%d) = %d < previous %d", v, idx, prev)
		}
		prev = idx
		mid := bucketMid(idx)
		// The midpoint must be within a factor bounded by the sub-bucket
		// width of v.
		if v > 0 {
			ratio := float64(mid) / float64(v)
			if ratio < 0.9 || ratio > 1.1 {
				t.Fatalf("bucketMid(bucketOf(%d)) = %d, off by %.2fx", v, mid, ratio)
			}
		}
	}
}

// TestHistogramQuantiles compares histogram quantiles against exact
// order-statistics of a log-normal-ish sample.
func TestHistogramQuantiles(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	h := NewHistogram()
	var sample []float64
	for i := 0; i < 20000; i++ {
		v := int64(math.Exp(rng.NormFloat64()*1.5+10)) + rng.Int63n(1000)
		h.Record(v)
		sample = append(sample, float64(v))
	}
	sort.Float64s(sample)
	for _, p := range []float64{0.5, 0.9, 0.99} {
		exact := sample[int(p*float64(len(sample)-1))] // the order statistic at rank p(n-1)
		got := float64(h.Quantile(p))
		if rel := math.Abs(got-exact) / exact; rel > 0.08 {
			t.Fatalf("p%.0f: histogram %v vs exact %v (%.1f%% off)", p*100, got, exact, rel*100)
		}
	}
	if h.Count() != 20000 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Quantile(0) < h.Min() || h.Quantile(1) > h.Max() {
		t.Fatalf("quantiles escape [min,max]: q0=%d min=%d q1=%d max=%d", h.Quantile(0), h.Min(), h.Quantile(1), h.Max())
	}
}

// TestHistogramMerge folds two histograms and checks totals.
func TestHistogramMerge(t *testing.T) {
	a, b := NewHistogram(), NewHistogram()
	for i := int64(1); i <= 100; i++ {
		a.Record(i)
		b.Record(i * 1000)
	}
	a.Merge(b)
	if a.Count() != 200 {
		t.Fatalf("merged count = %d", a.Count())
	}
	if a.Min() != 1 || a.Max() != 100000 {
		t.Fatalf("merged min/max = %d/%d", a.Min(), a.Max())
	}
	empty := NewHistogram()
	empty.Merge(a)
	if empty.Count() != 200 || empty.Min() != 1 {
		t.Fatalf("merge into empty: count=%d min=%d", empty.Count(), empty.Min())
	}
}

// TestHistogramMergeMismatchedRanges merges histograms whose populated
// ranges do not overlap — the per-shard case, where one shard's latencies
// sit orders of magnitude away from another's — and checks the merged
// quantiles land in the correct source range, the fold is symmetric, and
// moments fold exactly.
func TestHistogramMergeMismatchedRanges(t *testing.T) {
	low, high := NewHistogram(), NewHistogram()
	for i := int64(0); i < 1000; i++ {
		low.Record(1_000 + i)           // ~1us range
		high.Record(50_000_000 + i*500) // ~50ms range
	}

	merged := NewHistogram()
	merged.Merge(low)
	merged.Merge(high)
	reversed := NewHistogram()
	reversed.Merge(high)
	reversed.Merge(low)

	for _, m := range []*Histogram{merged, reversed} {
		if m.Count() != 2000 {
			t.Fatalf("merged count = %d", m.Count())
		}
		if m.Min() != low.Min() || m.Max() != high.Max() {
			t.Fatalf("merged min/max = %d/%d, want %d/%d", m.Min(), m.Max(), low.Min(), high.Max())
		}
		if m.Sum() != low.Sum()+high.Sum() {
			t.Fatalf("merged sum = %d, want %d", m.Sum(), low.Sum()+high.Sum())
		}
		// Below the 50% point every observation is from the low range;
		// above it, from the high range. Quantiles must not blend across
		// the empty gap between the populated ranges.
		if q := m.Quantile(0.25); q > 2*low.Max() {
			t.Fatalf("p25 = %d escaped the low range (max %d)", q, low.Max())
		}
		if q := m.Quantile(0.75); q < high.Min()/2 {
			t.Fatalf("p75 = %d escaped the high range (min %d)", q, high.Min())
		}
	}
	if merged.Quantile(0.5) != reversed.Quantile(0.5) || merged.Quantile(0.99) != reversed.Quantile(0.99) {
		t.Fatal("merge is order-sensitive")
	}

	// Merging an empty histogram is the identity, in both directions.
	before := merged.String()
	merged.Merge(NewHistogram())
	if merged.String() != before || merged.Min() != low.Min() {
		t.Fatalf("merging empty changed the histogram: %s -> %s", before, merged.String())
	}
	ontoEmpty := NewHistogram()
	ontoEmpty.Merge(high)
	if ontoEmpty.Count() != 1000 || ontoEmpty.Min() != high.Min() || ontoEmpty.Max() != high.Max() {
		t.Fatalf("merge onto empty: n=%d min=%d max=%d", ontoEmpty.Count(), ontoEmpty.Min(), ontoEmpty.Max())
	}
}

// TestHistogramEmpty checks the zero-observation behavior.
func TestHistogramEmpty(t *testing.T) {
	h := NewHistogram()
	if h.Quantile(0.5) != 0 || h.Mean() != 0 || h.Min() != 0 || h.Max() != 0 {
		t.Fatal("empty histogram not all-zero")
	}
}
