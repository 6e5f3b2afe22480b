package linalg

// Band-limited elimination against the textbook dense elimination,
// which exchanges whole rows and keeps L in place.

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

// textbook is the dense elimination FactorBand must reproduce:
// partial pivoting over the whole column, whole rows exchanged and the
// multipliers stored in place, so the packed lu holds L below the
// diagonal and U on and above it, each row in its final place.
type textbook struct {
	lu             []float64
	swaps          []int
	minPiv, maxPiv float64
}

func denseEliminate(a *Matrix) (*textbook, error) {
	n := a.Rows
	tb := &textbook{lu: append([]float64(nil), a.Data...), swaps: make([]int, n), minPiv: math.Inf(1)}
	lu := tb.lu
	for k := 0; k < n; k++ {
		p, big := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > big {
				p, big = i, v
			}
		}
		if big == 0 || math.IsNaN(big) || math.IsInf(big, 0) {
			return nil, ErrSingular
		}
		tb.minPiv, tb.maxPiv = min(tb.minPiv, big), max(tb.maxPiv, big)
		tb.swaps[k] = p
		rowP, rowK := lu[p*n:p*n+n], lu[k*n:k*n+n]
		for j := range rowK {
			rowK[j], rowP[j] = rowP[j], rowK[j]
		}
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / lu[k*n+k]
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				lu[i*n+j] -= m * lu[k*n+j]
			}
		}
	}
	return tb, nil
}

// factors compresses the packed factors as LU stores them: each row's
// nonzeros below the diagonal into l, above it into u.
func (tb *textbook) factors() (l, u csr, diag []float64) {
	n := len(tb.swaps)
	l.rowPtr, u.rowPtr = []int{0}, []int{0}
	for i := 0; i < n; i++ {
		for j, v := range tb.lu[i*n : i*n+n] {
			f := &u
			if j < i {
				f = &l
			}
			if j == i {
				diag = append(diag, v)
			} else if v != 0 {
				f.colIdx, f.val = append(f.colIdx, j), append(f.val, v)
			}
		}
		l.rowPtr, u.rowPtr = append(l.rowPtr, len(l.val)), append(u.rowPtr, len(u.val))
	}
	return l, u, diag
}

// bandOf copies the band |i−j| ≤ bw of a into band storage.
func bandOf(a *Matrix, bw int) *Band {
	var b Band
	b.Reset(a.Rows, bw)
	for i := 0; i < a.Rows; i++ {
		for j := max(0, i-b.bw); j <= min(a.Rows-1, i+b.bw); j++ {
			b.Set(i, j, a.At(i, j))
		}
	}
	return &b
}

func factorBand(a *Matrix, bw int) (*LU, error) {
	f := new(LU)
	return f, f.FactorBand(bandOf(a, bw))
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

// sameFactors checks f against the textbook elimination bit for bit:
// the same swaps, L, U and pivots, and so the same CondEstimate.
func sameFactors(t *testing.T, what string, f *LU, tb *textbook) {
	t.Helper()
	for k := range tb.swaps {
		if f.swaps[k] != tb.swaps[k] {
			t.Fatalf("%s: step %d swaps row %d, dense %d", what, k, f.swaps[k], tb.swaps[k])
		}
	}
	l, u, diag := tb.factors()
	sameCSR(t, what+" L", &f.l, &l)
	sameCSR(t, what+" U", &f.u, &u)
	sameBits(t, what+" pivots", f.diag, diag)
	sameBits(t, what+" pivot range", []float64{f.minPiv, f.maxPiv, f.CondEstimate()},
		[]float64{tb.minPiv, tb.maxPiv, tb.maxPiv / tb.minPiv})
}

// Band elimination stores the textbook dense elimination's factors bit
// for bit, at the matrix's own half-bandwidth and in the dense case.
func TestBandEliminationMatchesDenseBits(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	twice := 0
	for trial := 0; trial < 60; trial++ {
		n := 20 + rng.Intn(101)
		bw := 1 + rng.Intn(8)
		a := bandedSystem(rng, n, bw)
		want, err := denseEliminate(a)
		if err != nil {
			t.Fatalf("trial %d (n=%d, bw=%d): dense: %v", trial, n, bw, err)
		}
		band, err := factorBand(a, bw)
		if err != nil {
			t.Fatalf("trial %d (n=%d, bw=%d): band: %v", trial, n, bw, err)
		}
		dense, err := Factor(a)
		if err != nil {
			t.Fatalf("trial %d (n=%d): Factor: %v", trial, n, err)
		}
		sameFactors(t, fmt.Sprintf("trial %d band", trial), band, want)
		sameFactors(t, fmt.Sprintf("trial %d Factor", trial), dense, want)
		if displacedTwice(want.swaps) {
			twice++
		}
	}
	if twice == 0 {
		t.Fatal("no trial moved a row down twice; the test does not exercise displaced rows")
	}
	// Bands so wide that a row's 3·bw+1 columns reach past the matrix
	// or fill it.
	for _, c := range []struct{ n, bw int }{{20, 7}, {40, 12}, {31, 20}} {
		a := bandedSystem(rng, c.n, c.bw)
		want, err := denseEliminate(a)
		if err != nil {
			t.Fatal(err)
		}
		band, err := factorBand(a, c.bw)
		if err != nil {
			t.Fatalf("n=%d, bw=%d: band: %v", c.n, c.bw, err)
		}
		sameFactors(t, fmt.Sprintf("n=%d, bw=%d band", c.n, c.bw), band, want)
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
	got, err := factorBand(a, 1000)
	if err != nil {
		t.Fatal(err)
	}
	sameCSR(t, "L", &got.l, &want.l)
	sameCSR(t, "U", &got.u, &want.u)
	defer func() {
		if recover() == nil {
			t.Fatal("accepted a negative half-bandwidth")
		}
	}()
	new(Band).Reset(30, -1)
}

// An LU refactored in place gives a fresh factorization's solves bit
// for bit, whatever it held before, and once its storage has grown a
// refactorization allocates nothing.
func TestFactorBandReusesStorage(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	var f LU
	var b Band
	for _, n := range []int{60, 12, 90, 60} {
		a := bandedSystem(rng, n, 3)
		want, err := Factor(a)
		if err != nil {
			t.Fatal(err)
		}
		b.Reset(n, 3)
		for i := 0; i < n; i++ {
			for j := max(0, i-3); j <= min(n-1, i+3); j++ {
				b.Set(i, j, a.At(i, j))
			}
		}
		if err := f.FactorBand(&b); err != nil {
			t.Fatal(err)
		}
		rhs := randomVec(rng, n)
		wantX, gotX := make([]float64, n), make([]float64, n)
		if err := want.SolveInPlace(rhs, wantX); err != nil {
			t.Fatal(err)
		}
		if err := f.SolveInPlace(rhs, gotX); err != nil {
			t.Fatal(err)
		}
		sameBits(t, fmt.Sprintf("n=%d", n), gotX, wantX)
	}
	a := bandedSystem(rng, 60, 3)
	allocs := testing.AllocsPerRun(20, func() {
		b.Reset(60, 3)
		for i := 0; i < 60; i++ {
			for j := max(0, i-3); j <= min(59, i+3); j++ {
				b.Set(i, j, a.At(i, j))
			}
		}
		if err := f.FactorBand(&b); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("a warm refactorization allocates %v times, want 0", allocs)
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
	if _, err := factorBand(a, 1); !errors.Is(err, ErrSingular) {
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
	if _, err := factorBand(a, 1); !errors.Is(err, ErrIllConditioned) {
		t.Fatalf("want ErrIllConditioned, got %v", err)
	}
}

func TestBandFactorRejectsNonFiniteInput(t *testing.T) {
	for _, at := range [][2]int{{0, 0}, {3, 4}, {9, 8}} {
		a := tridiagonal(10, 3)
		a.Set(at[0], at[1], math.Inf(-1))
		_, err := factorBand(a, 1)
		if !errors.Is(err, ErrNonFinite) {
			t.Fatalf("Inf at %v: want ErrNonFinite, got %v", at, err)
		}
		if want := fmt.Sprintf("(%d,%d)", at[0], at[1]); !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q does not locate the bad element %s", err, want)
		}
	}
}
