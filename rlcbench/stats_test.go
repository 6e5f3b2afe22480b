package main

import (
	"math"
	"testing"
	"time"
)

func TestTailPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 50}, {19, 50}, {99, 50}, {100, 90}, {100000, 90},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestSummarizeReportsTailWithItsSampleCount(t *testing.T) {
	ds := make([]time.Duration, 1000)
	for i := range ds {
		ds[i] = time.Duration(i+1) * time.Millisecond
	}
	s := summarize(ds)
	if s.n != 1000 || s.tailPct != 90 {
		t.Fatalf("n %d tail p%g, want 1000 and p90", s.n, s.tailPct)
	}
	if math.Abs(s.p50-500.5) > 1e-9 || math.Abs(s.tail-900.1) > 1e-9 {
		t.Errorf("p50 %g p90 %g, want 500.5 and 900.1", s.p50, s.tail)
	}
}

func TestPercentileInterpolatesBetweenRanks(t *testing.T) {
	s := []float64{10, 20, 30, 40}
	for _, c := range []struct{ p, want float64 }{{0, 10}, {50, 25}, {100, 40}, {90, 37}} {
		if got := percentile(s, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("p%g = %g, want %g", c.p, got, c.want)
		}
	}
	if !math.IsNaN(percentile(nil, 50)) {
		t.Error("percentile of nothing should be NaN")
	}
}

// The spread of a metric across runs is judged with Python's
// statistics.quantiles(values, n=4); these are its outputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		in   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, [3]float64{1, 2, 3}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 1.5, 9.25, 2, 7, 3.5, 8}, [3]float64{2, 5, 8}},
	} {
		q1, q2, q3 := quartiles(c.in)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.in, got, c.want)
		}
	}
}
