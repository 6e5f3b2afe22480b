package linalg

// Band-limited elimination against the dense case: the same routine
// with bw = n−1 visits every entry, so it is the oracle.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// bandedSystem returns a random n×n matrix with half-bandwidth bw whose
// diagonal is much smaller than the entries beside it, so partial
// pivoting takes most pivots from below the diagonal and moves rows
// down, some of them more than once. Every (bw+3)-th row keeps a
// dominant diagonal so that elimination stays well conditioned.
func bandedSystem(rng *rand.Rand, n, bw int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := max(0, i-bw); j <= min(n-1, i+bw); j++ {
			if i != j && rng.Float64() < 0.7 {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		d := 1e-3 * rng.NormFloat64()
		if i%(bw+3) == 0 {
			d = 10 + rng.Float64()
		}
		a.Set(i, i, d)
		// Keep the outermost diagonals populated so bw is the true
		// half-bandwidth.
		if i+bw < n {
			a.Set(i, i+bw, 1+rng.Float64())
			a.Set(i+bw, i, -1-rng.Float64())
		}
	}
	return a
}

// displacedTwice reports whether some row is moved down by a swap more
// than once during the elimination that swaps records.
func displacedTwice(swaps []int) bool {
	n := len(swaps)
	at := make([]int, n) // at[pos] = original row now at pos
	moves := make([]int, n)
	for i := range at {
		at[i] = i
	}
	for k, p := range swaps {
		if p == k {
			continue
		}
		moves[at[k]]++
		if moves[at[k]] > 1 {
			return true
		}
		at[k], at[p] = at[p], at[k]
	}
	return false
}

func sameCSR(t *testing.T, what string, got, want *csr) {
	t.Helper()
	if len(got.rowPtr) != len(want.rowPtr) || len(got.colIdx) != len(want.colIdx) {
		t.Fatalf("%s: %d rows, %d entries; dense elimination has %d rows, %d entries",
			what, len(got.rowPtr)-1, len(got.colIdx), len(want.rowPtr)-1, len(want.colIdx))
	}
	for i := range want.rowPtr {
		if got.rowPtr[i] != want.rowPtr[i] {
			t.Fatalf("%s: row pointer %d = %d, dense %d", what, i, got.rowPtr[i], want.rowPtr[i])
		}
	}
	for k := range want.colIdx {
		if got.colIdx[k] != want.colIdx[k] {
			t.Fatalf("%s: entry %d in column %d, dense %d", what, k, got.colIdx[k], want.colIdx[k])
		}
	}
	sameBits(t, what, got.val, want.val)
}

// Band elimination stores the dense elimination's factors bit for bit:
// the same swaps, L, U and pivots, and so the same CondEstimate.
func TestBandEliminationMatchesDenseBits(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	twice := 0
	for trial := 0; trial < 60; trial++ {
		n := 20 + rng.Intn(101)
		bw := 1 + rng.Intn(8)
		a := bandedSystem(rng, n, bw)
		dense, err := FactorInPlace(a.Clone(), n-1)
		if err != nil {
			t.Fatalf("trial %d (n=%d, bw=%d): dense: %v", trial, n, bw, err)
		}
		band, err := FactorInPlace(a.Clone(), bw)
		if err != nil {
			t.Fatalf("trial %d (n=%d, bw=%d): band: %v", trial, n, bw, err)
		}
		for k := range dense.swaps {
			if band.swaps[k] != dense.swaps[k] {
				t.Fatalf("trial %d: step %d swaps row %d, dense %d", trial, k, band.swaps[k], dense.swaps[k])
			}
		}
		sameCSR(t, "L", band.l, dense.l)
		sameCSR(t, "U", band.u, dense.u)
		sameBits(t, "pivots", band.diag, dense.diag)
		sameBits(t, "pivot range", []float64{band.minPiv, band.maxPiv, band.CondEstimate()},
			[]float64{dense.minPiv, dense.maxPiv, dense.CondEstimate()})
		if displacedTwice(dense.swaps) {
			twice++
		}
	}
	if twice == 0 {
		t.Fatal("no trial moved a row down twice; the test does not exercise displaced rows")
	}
}

// A bandwidth of n or more is the dense case, and a negative one is
// refused.
func TestBandWidthBeyondMatrixIsDense(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	a := bandedSystem(rng, 30, 4)
	want, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	got, err := FactorInPlace(a.Clone(), 1000)
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, "L", got.l, want.l)
	sameCSR(t, "U", got.u, want.u)
	if _, err := FactorInPlace(a.Clone(), -1); err == nil {
		t.Fatal("accepted a negative half-bandwidth")
	}
}

// tridiagonal returns an n×n tridiagonal matrix with diagonal d and
// off-diagonals ±1.
func tridiagonal(n int, d float64) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, d)
		if i+1 < n {
			a.Set(i, i+1, 1)
			a.Set(i+1, i, -1)
		}
	}
	return a
}

func TestBandFactorSingularIsNamed(t *testing.T) {
	a := tridiagonal(12, 3)
	for i := 0; i < 12; i++ {
		a.Set(i, 7, 0) // an empty column
	}
	if _, err := FactorInPlace(a, 1); !errors.Is(err, ErrSingular) {
		t.Fatalf("want ErrSingular, got %v", err)
	}
}

func TestBandFactorPivotOverflowIsIllConditioned(t *testing.T) {
	a := tridiagonal(10, 1)
	a.Set(5, 5, math.MaxFloat64)
	a.Set(5, 6, math.MaxFloat64)
	a.Set(6, 5, math.MaxFloat64)
	a.Set(6, 6, -math.MaxFloat64)
	// Elimination overflows the (6,6) update to -Inf.
	if _, err := FactorInPlace(a, 1); !errors.Is(err, ErrIllConditioned) {
		t.Fatalf("want ErrIllConditioned, got %v", err)
	}
}

func TestBandFactorRejectsNonFiniteInput(t *testing.T) {
	for _, at := range [][2]int{{0, 0}, {3, 4}, {9, 8}} {
		a := tridiagonal(10, 3)
		a.Set(at[0], at[1], math.Inf(-1))
		_, err := FactorInPlace(a, 1)
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("Inf at %v: want ErrNonFinite, got %v", at, err)
		}
		if want := fmt.Sprintf("(%d,%d)", at[0], at[1]); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not locate the bad element %s", err, want)
		}
	}
}
