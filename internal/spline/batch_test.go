package spline

import (
	"math"
	"math/rand"
	"sync"
	"testing"
)

// batchTestGrid builds a 4-D grid shaped like the mutual-inductance
// table with deterministic but non-trivial values.
func batchTestGrid(t testing.TB) *Grid {
	t.Helper()
	axes := [][]float64{
		linspace(0.1, 2, 6),
		linspace(0.1, 2, 6),
		logspace(0.2, 10, 5),
		logspace(10, 3000, 8),
	}
	size := 1
	for _, ax := range axes {
		size *= len(ax)
	}
	vals := make([]float64, size)
	for i := range vals {
		vals[i] = math.Sin(float64(i)*0.37) + 2.5
	}
	g, err := NewGrid(axes, vals)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// batchQueries generates nq coordinate tuples: a mix of in-range,
// extrapolated, and deliberately repeated tuples (ndistinct distinct
// geometries, like a clock tree's repeated segment shapes).
func batchQueries(rng *rand.Rand, g *Grid, nq, ndistinct int) []float64 {
	dim := g.Dim()
	distinct := make([][]float64, ndistinct)
	for i := range distinct {
		q := make([]float64, dim)
		for d, ax := range g.Axes {
			lo, hi := ax[0], ax[len(ax)-1]
			// 10% below-range, 10% above-range, rest inside.
			switch r := rng.Float64(); {
			case r < 0.1:
				q[d] = lo - rng.Float64()*lo*0.5
			case r > 0.9:
				q[d] = hi * (1 + rng.Float64()*0.3)
			default:
				q[d] = lo + rng.Float64()*(hi-lo)
			}
		}
		distinct[i] = q
	}
	coords := make([]float64, 0, nq*dim)
	for i := 0; i < nq; i++ {
		coords = append(coords, distinct[rng.Intn(ndistinct)]...)
	}
	return coords
}

// loopLPairQueries generates npair query pairs in the shape of a loop
// composition's two mutual lookups, (a, b, s, l) then (b, b, s′, l):
// the two share their last coordinate and differ elsewhere, and the
// lengths are drawn from nlen values, so runs of equal last
// coordinates also span pairs.
func loopLPairQueries(rng *rand.Rand, g *Grid, npair, nlen int) []float64 {
	lens := batchQueries(rng, g, nlen, nlen)
	coords := make([]float64, 0, 2*npair*4)
	for i := 0; i < npair; i++ {
		q := batchQueries(rng, g, 2, 2)
		l := lens[rng.Intn(nlen)*4+3]
		coords = append(coords, q[0], q[1], q[2], l, q[1], q[1], q[6], l)
	}
	return coords
}

// TestEvalBatchMatchesEvalBitwise is the batch path's core contract:
// for every batch size and query order, EvalBatch result i is
// bit-identical (not merely close) to Eval on the same tuple. The pair
// mixes share last-axis passes between queries that differ on every
// other axis.
func TestEvalBatchMatchesEvalBitwise(t *testing.T) {
	g := batchTestGrid(t)
	dim := g.Dim()
	for _, tc := range []struct {
		nq, ndistinct int
		pairs         bool
	}{
		{1, 1, false}, {2, 1, false}, {7, 3, false}, {64, 5, false},
		{64, 64, false}, {257, 16, false}, {1024, 16, false},
		{2, 1, true}, {64, 3, true}, {64, 32, true}, {1024, 512, true},
	} {
		rng := rand.New(rand.NewSource(int64(tc.nq)*1000 + int64(tc.ndistinct)))
		var coords []float64
		if tc.pairs {
			coords = loopLPairQueries(rng, g, tc.nq/2, tc.ndistinct)
		} else {
			coords = batchQueries(rng, g, tc.nq, tc.ndistinct)
		}
		want := make([]float64, tc.nq)
		for i := range want {
			v, err := g.Eval(coords[i*dim : (i+1)*dim]...)
			if err != nil {
				t.Fatal(err)
			}
			want[i] = v
		}
		got := make([]float64, tc.nq)
		if err := g.EvalBatch(coords, got); err != nil {
			t.Fatalf("nq=%d: %v", tc.nq, err)
		}
		for i := range got {
			if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
				t.Fatalf("nq=%d ndistinct=%d query %d: batch %v != scalar %v (bitwise)",
					tc.nq, tc.ndistinct, i, got[i], want[i])
			}
		}

		// Shuffle the query order: results must follow their queries
		// and stay bit-identical — order independence is what makes
		// the lexicographic sort an invisible optimisation.
		perm := rng.Perm(tc.nq)
		shuf := make([]float64, len(coords))
		for to, from := range perm {
			copy(shuf[to*dim:(to+1)*dim], coords[from*dim:(from+1)*dim])
		}
		gotShuf := make([]float64, tc.nq)
		if err := g.EvalBatch(shuf, gotShuf); err != nil {
			t.Fatal(err)
		}
		for to, from := range perm {
			if math.Float64bits(gotShuf[to]) != math.Float64bits(want[from]) {
				t.Fatalf("nq=%d shuffled query %d: %v != %v (bitwise)",
					tc.nq, to, gotShuf[to], want[from])
			}
		}
	}
}

func TestEvalBatchEmptyAndSizeMismatch(t *testing.T) {
	g := batchTestGrid(t)
	if err := g.EvalBatch(nil, nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := g.EvalBatch(make([]float64, 7), make([]float64, 2)); err == nil {
		t.Fatal("want error for coords/out size mismatch")
	}
}

// TestEvalBatchConcurrent exercises the shared scratch pool and the
// package-level order pool under the race detector: many goroutines
// batch-evaluating one grid must neither race nor cross results.
func TestEvalBatchConcurrent(t *testing.T) {
	g := batchTestGrid(t)
	dim := g.Dim()
	rng := rand.New(rand.NewSource(99))
	coords := batchQueries(rng, g, 128, 9)
	want := make([]float64, 128)
	for i := range want {
		v, err := g.Eval(coords[i*dim : (i+1)*dim]...)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = v
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			out := make([]float64, 128)
			for rep := 0; rep < 20; rep++ {
				if err := g.EvalBatch(coords, out); err != nil {
					t.Error(err)
					return
				}
				for i := range out {
					if math.Float64bits(out[i]) != math.Float64bits(want[i]) {
						t.Errorf("concurrent batch query %d: %v != %v", i, out[i], want[i])
						return
					}
				}
			}
		}()
	}
	wg.Wait()
}

// TestNewGridWithCoefBitIdentical: a grid rebuilt from exported
// coefficient matrices evaluates bit-identically to the original —
// the property codec v3 relies on to skip tridiagonal solves at load.
func TestNewGridWithCoefBitIdentical(t *testing.T) {
	g := batchTestGrid(t)
	coef := make([][]float64, g.Dim())
	for d := range coef {
		coef[d] = g.Coef(d)
	}
	g2, err := NewGridWithCoef(g.Axes, g.Vals, coef)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	coords := batchQueries(rng, g, 64, 64)
	dim := g.Dim()
	for i := 0; i < 64; i++ {
		q := coords[i*dim : (i+1)*dim]
		a, err := g.Eval(q...)
		if err != nil {
			t.Fatal(err)
		}
		b, err := g2.Eval(q...)
		if err != nil {
			t.Fatal(err)
		}
		if math.Float64bits(a) != math.Float64bits(b) {
			t.Fatalf("query %d: rebuilt grid %v != original %v (bitwise)", i, b, a)
		}
	}
}

func TestNewGridWithCoefRejectsBadShapes(t *testing.T) {
	axes := [][]float64{{0, 1, 2}, {5}}
	vals := []float64{1, 2, 3}
	good, err := NewGrid(axes, vals)
	if err != nil {
		t.Fatal(err)
	}
	cases := [][][]float64{
		{good.Coef(0)},               // missing a matrix
		{good.Coef(0)[:4], nil},      // wrong size
		{good.Coef(0), {1, 2, 3, 4}}, // singleton axis with coefficients
		{nil, nil},                   // nil matrix for non-singleton axis
	}
	for i, coef := range cases {
		if _, err := NewGridWithCoef(axes, vals, coef); err == nil {
			t.Errorf("case %d: want shape error, got nil", i)
		}
	}
}
