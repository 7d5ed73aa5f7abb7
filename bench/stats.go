package main

import (
	"math"
	"sort"
	"time"
)

// nearestRank returns the p-th percentile (0 < p <= 100) of xs by the
// nearest-rank method: the smallest sample with at least p percent of
// the samples at or below it. It returns 0 for no samples.
func nearestRank(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	return s[rank(len(s), p)-1]
}

// rank is the 1-based nearest-rank position of the p-th percentile of n
// samples.
func rank(n int, p float64) int {
	// The epsilon keeps float error (99.9% of 10000 is 9990.000000000002)
	// from pushing the rank up one.
	return max(1, min(n, int(math.Ceil(p*float64(n)/100-1e-9))))
}

// beyond is how many of n samples lie above the p-th percentile.
func beyond(n int, p float64) int { return n - rank(n, p) }

// tailPercentiles are the percentiles a latency report picks its tail
// from, highest first.
var tailPercentiles = []float64{99.9, 99, 90, 50}

// tailPercentile returns the highest tail percentile that has at least
// ten of n samples beyond it, or 0 when even the median has fewer: a
// tail quantile resting on fewer samples is an anecdote, not a
// measurement.
func tailPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		if beyond(n, p) >= 10 {
			return p
		}
	}
	return 0
}

// quartiles returns the first, second and third quartile of xs by the
// exclusive method (Python's statistics.quantiles(xs, n=4), which is
// how the benchmark's spread is judged). One sample is its own
// quartiles; no samples give zeros.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	switch len(s) {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := len(s) + 1
		j := max(1, min(len(s)-1, i*m/4))
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return q(1), q(2), q(3)
}

// spread is the distance between the quartiles as a share of the
// median (0 when the median is 0).
func spread(xs []float64) float64 {
	q1, m, q3 := quartiles(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func durationsS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
