package peec

import (
	"slices"
	"time"

	"clockrlc/internal/linalg"
	"clockrlc/internal/obs"
)

// Partial-inductance engine accounting: matrix assemblies and the
// wall time they absorb (the dominant cost of table builds and
// whole-tree solves).
var (
	matrixBuilds = obs.GetCounter("peec.matrix_builds")
	matrixNs     = obs.GetCounter("peec.matrix_ns")
	matrixBars   = obs.GetHistogram("peec.matrix_bars")
)

// PartialMatrix computes the full partial inductance matrix Lp (H) of
// a set of bars using the exact closed-form Hoer–Love integrals.
// Entry (i, j) is the mutual partial inductance between bars i and j;
// the diagonal holds self partial inductances. Orthogonal pairs are
// exactly zero. The matrix is symmetric by reciprocity and the
// implementation computes only the upper triangle, evaluating the
// kernel once per distinct limit point of the whole matrix
// (kernelMemo); every entry equals HoerLoveMutual of its two bars bit
// for bit.
func PartialMatrix(bars []Bar) *linalg.Matrix {
	matrixBuilds.Inc()
	matrixBars.Observe(float64(len(bars)))
	defer obs.SinceNs(matrixNs, time.Now())
	n := len(bars)
	m := linalg.NewMatrix(n, n)
	mutualCalls.Add(int64(n * (n + 1) / 2))
	km := memoPool.Get().(*kernelMemo)
	defer memoPool.Put(km)
	km.pairs = km.pairs[:0]
	for i := 0; i < n; i++ {
		for j := i; j < n; j++ {
			if bars[i].Axis == bars[j].Axis {
				km.pairs = append(km.pairs, [2]int32{int32(i), int32(j)})
			}
		}
	}
	km.out = slices.Grow(km.out[:0], len(km.pairs))[:len(km.pairs)]
	kernelEvals.Add(km.mutuals(bars, km.pairs, km.out))
	for p, pr := range km.pairs {
		i, j := int(pr[0]), int(pr[1])
		m.Set(i, j, km.out[p])
		m.Set(j, i, km.out[p])
	}
	return m
}

// DCResistances returns the DC resistance ρl/(wt) of each bar for a
// shared resistivity rho (Ω·m).
func DCResistances(bars []Bar, rho float64) []float64 {
	out := make([]float64, len(bars))
	for i, b := range bars {
		out[i] = rho * b.L / (b.W * b.T)
	}
	return out
}
