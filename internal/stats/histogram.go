// Package stats provides the log-linear latency histogram internal/loadgen
// records its per-operation samples in.
package stats

import (
	"fmt"
	"math/bits"
	"time"
)

// histSubBits sets the histogram's resolution: each power-of-two range is
// split into 2^histSubBits linear sub-buckets, bounding the relative
// quantile error by 2^-histSubBits (~6%).
const histSubBits = 4

// histBuckets covers int64 values up to 2^62 at the resolution above.
const histBuckets = (64 - histSubBits) << histSubBits

// Histogram is a log-linear (HDR-style) histogram of non-negative int64
// observations — latencies in nanoseconds, typically. Recording is a
// constant-time array increment with no allocation, so the load generator
// can record every single operation instead of sampling. A Histogram is
// NOT safe for concurrent use: record from one goroutine (the async
// engine's loop, in the loadgen) or merge per-worker histograms.
type Histogram struct {
	counts [histBuckets]uint64
	count  int64
	sum    int64
	min    int64
	max    int64
}

// NewHistogram creates an empty histogram.
func NewHistogram() *Histogram { return &Histogram{min: -1} }

// bucketOf maps a value to its bucket index.
func bucketOf(v int64) int {
	if v < 1<<histSubBits {
		return int(v)
	}
	shift := bits.Len64(uint64(v)) - histSubBits - 1
	return shift<<histSubBits + int(v>>shift)
}

// bucketMid returns a representative (midpoint) value for a bucket.
func bucketMid(idx int) int64 {
	if idx < 1<<histSubBits {
		return int64(idx)
	}
	shift := idx>>histSubBits - 1
	base := int64(idx-shift<<histSubBits) << shift
	return base + int64(1<<shift)/2
}

// Record adds one observation; negative values clamp to zero.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.count++
	h.sum += v
	if h.min < 0 || v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count }

// Sum returns the sum of all observations.
func (h *Histogram) Sum() int64 { return h.sum }

// Min returns the smallest observation (0 when empty).
func (h *Histogram) Min() int64 {
	if h.min < 0 {
		return 0
	}
	return h.min
}

// Max returns the largest observation.
func (h *Histogram) Max() int64 { return h.max }

// Mean returns the arithmetic mean (0 when empty).
func (h *Histogram) Mean() float64 {
	if h.count == 0 {
		return 0
	}
	return float64(h.sum) / float64(h.count)
}

// Quantile returns an approximation of the p-quantile (p in [0,1]), exact
// for values below 2^histSubBits and within ~6% relative error above. The
// reported value is clamped into [Min, Max].
func (h *Histogram) Quantile(p float64) int64 {
	if h.count == 0 {
		return 0
	}
	if p < 0 {
		p = 0
	}
	if p > 1 {
		p = 1
	}
	target := int64(p * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var seen int64
	for idx, c := range h.counts {
		seen += int64(c)
		if seen > target {
			v := bucketMid(idx)
			if v < h.Min() {
				v = h.Min()
			}
			if v > h.max {
				v = h.max
			}
			return v
		}
	}
	return h.max
}

// Merge folds another histogram into this one.
func (h *Histogram) Merge(o *Histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.count += o.count
	h.sum += o.sum
	if o.count > 0 && (h.min < 0 || (o.min >= 0 && o.min < h.min)) {
		h.min = o.min
	}
	if o.max > h.max {
		h.max = o.max
	}
}

// String implements fmt.Stringer with duration-style formatting, which is
// what every current user records.
func (h *Histogram) String() string {
	return fmt.Sprintf("n=%d p50=%v p90=%v p99=%v max=%v",
		h.count,
		time.Duration(h.Quantile(0.50)),
		time.Duration(h.Quantile(0.90)),
		time.Duration(h.Quantile(0.99)),
		time.Duration(h.max))
}
