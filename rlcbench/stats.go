package main

import (
	"math"
	"time"
)

// percentile returns the p-th percentile (0–100) of ascending-sorted
// samples, interpolating linearly between the closest ranks. It returns
// NaN for no samples.
func percentile(sorted []float64, p float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(n-1)
	lo := int(math.Floor(pos))
	if lo >= n-1 {
		return sorted[n-1]
	}
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// tailPercentile is the percentile a tail is reported at: p90, which
// needs at least 100 samples to have ten beyond it, or the median with
// fewer (a p90 of a handful of samples is one sample, not a tail).
// p99 had ten samples beyond it on the batch and request workloads but
// scattered by 12–16 % between runs on the serve workload, against 2.5 %
// for p90.
func tailPercentile(n int) float64 {
	if n >= 100 {
		return 90
	}
	return 50
}

// latencySummary is the median and tail of a set of durations, in ms.
type latencySummary struct {
	n         int
	p50, tail float64
	tailPct   float64
}

func summarize(ds []time.Duration) latencySummary {
	ms := make([]float64, len(ds))
	for i, d := range ds {
		ms[i] = float64(d) / float64(time.Millisecond)
	}
	s := sortedCopy(ms)
	p := tailPercentile(len(s))
	return latencySummary{n: len(s), p50: percentile(s, 50), tail: percentile(s, p), tailPct: p}
}

// quartiles returns the three cut points Python's
// statistics.quantiles(data, n=4) returns (its default "exclusive"
// method), which is how the spread of a metric across runs is judged.
// It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	if n < 2 {
		v := math.NaN()
		if n == 1 {
			v = s[0]
		}
		return v, v, v
	}
	m := n + 1
	cut := func(i int) float64 {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4 // after clamping, as Python does
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return cut(1), cut(2), cut(3)
}

// medianOf returns the median of xs (NaN for none).
func medianOf(xs []float64) float64 {
	return percentile(sortedCopy(xs), 50)
}

// durationsMedian is medianOf for durations, in seconds.
func durationsMedian(ds []time.Duration) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = d.Seconds()
	}
	return medianOf(xs)
}
