package main

import (
	"math"
	"slices"
)

// rankQuantile returns the nearest-rank q-quantile of an ascending slice:
// the smallest element with at least q of the samples at or below it. It is
// exact — no bucketing, no interpolation — so two ops that differ by a
// nanosecond report different medians. Zero on an empty slice.
func rankQuantile[T int64 | uint32 | float64](sorted []T, q float64) T {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// median is the conventional median of a small set of run-level values
// (mean of the two middle elements on even counts). Zero on an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Sorted(slices.Values(xs))
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// quartiles reproduces Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method): the rule the PR driver applies to the ten per-seed
// values of a metric, so spreads printed here match the ones it computes.
// ok is false with fewer than two values.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := slices.Sorted(slices.Values(xs))
	m := len(s)
	cut := func(i int) float64 {
		j := i * (m + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > m-1 {
			j = m - 1
		}
		delta := i*(m+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3), true
}

// spread is the interquartile distance as a share of the median — the
// run-to-run noise figure every bound in BENCHMARK.json is sized against.
// ok is false when it cannot be computed (too few values or a zero median).
func spread(xs []float64) (float64, bool) {
	q1, _, q3, ok := quartiles(xs)
	med := median(xs)
	if !ok || med == 0 {
		return 0, false
	}
	return (q3 - q1) / math.Abs(med), true
}

// bestQuartile is how a run condenses its slices' values of one metric: the
// third quartile when higher is better, the first when lower is. The
// reference box's noise is one-sided — for seconds at a time the same work
// costs 30-40 % more CPU, never less — so the good quartile sits on the
// undisturbed level as long as a quarter of the run was undisturbed, while a
// median follows the disturbance once it covers half. It is a quartile, not
// the extreme, so one lucky slice does not set it. With fewer than two
// values it is the value itself.
func bestQuartile(xs []float64, higherBetter bool) float64 {
	q1, _, q3, ok := quartiles(xs)
	if !ok {
		return median(xs)
	}
	if higherBetter {
		return q3
	}
	return q1
}
