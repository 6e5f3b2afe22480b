// Package linalg implements the small linear-algebra kernel the
// extractor needs: real and complex matrices, LU decomposition with
// partial pivoting and linear solves.
//
// The matrices involved are modest (filament systems of a few hundred
// unknowns, MNA systems of a few thousand), so elimination runs in a
// dense row-major workspace. It is band-aware: FactorInPlace takes the
// matrix's half-bandwidth bw and confines the pivot search, the row
// updates, the non-finite scan and the compression of the factors to
// the band partial pivoting can fill (bw below the diagonal, 2·bw
// above). A caller that numbers its unknowns to keep bw small (sim
// uses reverse Cuthill–McKee) factors in O(n·bw²); bw = n−1 is the
// dense case, which Factor takes. A real LU keeps its factors in
// compressed-row form after elimination, so each solve costs O(nnz)
// rather than O(n²), with the same floating-point results as the
// dense loops. FactorInPlace eliminates in the caller's matrix, so a
// caller that recycles its buffers factors without a dense
// allocation. The complex solver stays fully dense.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// ErrSingular is returned when a factorization or solve encounters a
// numerically singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// ErrNonFinite is returned when a matrix handed to a factorization
// contains NaN or Inf entries — the input is poisoned and no solve
// can repair it. Catching this at the gate names the offending entry
// instead of letting NaN propagate into every downstream result.
var ErrNonFinite = errors.New("linalg: non-finite matrix entry")

// ErrIllConditioned is returned when a solve produces non-finite
// values from a finite system: the factorization was numerically too
// ill-conditioned (pivot underflow/overflow) for the result to mean
// anything. Callers get a named error instead of a NaN/Inf-poisoned
// vector.
var ErrIllConditioned = errors.New("linalg: ill-conditioned system")

// checkFinite rejects matrices carrying NaN/Inf before a
// factorization bothers to start. It scans the band |i−j| ≤ bw row by
// row, so it names the first offending element in row-major order.
func checkFinite(data []float64, n, bw int) error {
	for i := 0; i < n; i++ {
		lo, hi := max(0, i-bw), min(n-1, i+bw)
		for j, v := range data[i*n+lo : i*n+hi+1] {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("%w: element (%d,%d) = %g", ErrNonFinite, i, lo+j, v)
			}
		}
	}
	return nil
}

// Matrix is a dense row-major real matrix.
type Matrix struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewMatrix allocates a zeroed r×c matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic("linalg: negative matrix dimension")
	}
	return &Matrix{Rows: r, Cols: c, Data: make([]float64, r*c)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add accumulates v into element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// Zero resets every element to 0 in place.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// MulVec computes y = m·x. The receiver must be Rows×Cols with
// len(x) == Cols; the result has length Rows.
func (m *Matrix) MulVec(x []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %d != %d", len(x), m.Cols))
	}
	y := make([]float64, m.Rows)
	for i := 0; i < m.Rows; i++ {
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		s := 0.0
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// Transpose returns mᵀ as a new matrix.
func (m *Matrix) Transpose() *Matrix {
	out := NewMatrix(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			out.Set(j, i, m.At(i, j))
		}
	}
	return out
}

// MaxAbsDiff returns the largest absolute element-wise difference
// between m and other; it panics on shape mismatch. Useful in tests
// and convergence checks.
func (m *Matrix) MaxAbsDiff(other *Matrix) float64 {
	if m.Rows != other.Rows || m.Cols != other.Cols {
		panic("linalg: MaxAbsDiff shape mismatch")
	}
	d := 0.0
	for i, v := range m.Data {
		if a := math.Abs(v - other.Data[i]); a > d {
			d = a
		}
	}
	return d
}

// LU holds the LU factorization of a square matrix with partial
// pivoting, P·A = L·U. Elimination runs once, in a dense workspace;
// the factors are then stored compressed (exact zeros dropped), so each
// solve walks only the nonzeros that elimination left, fill included.
type LU struct {
	n    int
	l    *csr      // strictly lower triangle of L; its unit diagonal is implicit
	u    *csr      // strictly upper triangle of U
	diag []float64 // U's diagonal: the pivots
	// swaps[k] is the row exchanged with row k at elimination step k;
	// replaying the swaps in order applies P.
	swaps []int
	// minPiv/maxPiv are the extreme |pivot| magnitudes seen during
	// elimination; their ratio is a cheap condition estimate.
	minPiv, maxPiv float64
}

// CondEstimate returns the ratio of the largest to smallest |pivot|
// of the factorization — a free lower bound on the true condition
// number. Values near 1/ε (≈ 4.5e15 for float64) mean the solve has
// no trustworthy digits left.
func (f *LU) CondEstimate() float64 {
	if f.minPiv == 0 {
		return math.Inf(1)
	}
	return f.maxPiv / f.minPiv
}

// NNZ returns the number of stored factor entries: the nonzeros of L
// below the diagonal and of U on and above it.
func (f *LU) NNZ() int { return f.l.nnz() + f.u.nnz() + f.n }

// Factor computes the LU factorization of square matrix a. The input
// is not modified. It returns ErrSingular when a pivot underflows.
func Factor(a *Matrix) (*LU, error) {
	return FactorInPlace(a.Clone(), max(a.Rows-1, 0))
}

// FactorInPlace is Factor using a itself as the elimination workspace:
// it allocates no dense n×n buffer, and afterwards a holds scratch
// (the packed factors, or a partial elimination on error). The returned
// factorization keeps no reference to a, so a may be reused at once.
//
// bw is a's half-bandwidth: every nonzero a(i,j) has |i−j| ≤ bw, and
// elimination reads and writes only that band and the one partial
// pivoting fills. Entries outside the band must be zero; they are
// never looked at. bw ≥ n−1 is the dense case. The factors are bit for
// bit those of the dense elimination of the same matrix.
func FactorInPlace(a *Matrix, bw int) (*LU, error) {
	f, lfirst, err := eliminate(a, bw)
	if err != nil {
		return nil, err
	}
	n, lu := f.n, a.Data
	bw = min(bw, n-1)
	uEnd := func(i int) int { return i*n + min(n-1, i+2*bw) + 1 }
	lower, upper := 0, 0
	for i := 0; i < n; i++ {
		lower += countNonzero(lu[i*n+lfirst[i] : i*n+i])
		upper += countNonzero(lu[i*n+i+1 : uEnd(i)])
	}
	f.l, f.u = newCSR(n, lower), newCSR(n, upper)
	f.diag = make([]float64, n)
	for i := 0; i < n; i++ {
		f.l.appendRow(lu[i*n+lfirst[i]:i*n+i], lfirst[i])
		f.u.appendRow(lu[i*n+i+1:uEnd(i)], i+1)
		f.diag[i] = lu[i*n+i]
	}
	return f, nil
}

// eliminate runs Gaussian elimination with partial pivoting in place on
// a, whose nonzeros lie within half-bandwidth bw of the diagonal. It
// returns the factorization's permutation and pivot statistics, and
// leaves the factors packed row-major in a.Data: L's multipliers below
// the diagonal, U on and above it. Row i of L starts at column
// lfirst[i].
//
// Rows below k+bw are still untouched at step k, so the pivot search
// stops there, and the pivot row reaches no further than column k+2·bw.
// A row that a swap moves down keeps the multipliers it gathered
// higher up, so L rows are not confined to [i−bw, i): lfirst follows
// every row through its swaps.
func eliminate(a *Matrix, bw int) (f *LU, lfirst []int, err error) {
	if a.Rows != a.Cols {
		return nil, nil, fmt.Errorf("linalg: Factor needs a square matrix, got %d×%d", a.Rows, a.Cols)
	}
	n := a.Rows
	if bw < 0 {
		return nil, nil, fmt.Errorf("linalg: negative half-bandwidth %d", bw)
	}
	bw = min(bw, n-1)
	if err := checkFinite(a.Data, n, bw); err != nil {
		return nil, nil, err
	}
	f = &LU{n: n, swaps: make([]int, n), minPiv: math.Inf(1)}
	lfirst = make([]int, n)
	for i := range lfirst {
		lfirst[i] = max(0, i-bw)
	}
	lu := a.Data
	for k := 0; k < n; k++ {
		last := min(n-1, k+bw)    // last row that can hold column k
		right := min(n-1, k+2*bw) // last column the pivot row can hold
		// Partial pivot: find the largest |value| in column k at or
		// below the diagonal.
		p, max := k, math.Abs(lu[k*n+k])
		for i := k + 1; i <= last; i++ {
			if v := math.Abs(lu[i*n+k]); v > max {
				p, max = i, v
			}
		}
		if max == 0 || math.IsNaN(max) {
			return nil, nil, ErrSingular
		}
		if math.IsInf(max, 0) {
			// Finite input overflowed during elimination: the system is
			// numerically hopeless, not merely rank-deficient.
			return nil, nil, fmt.Errorf("pivot overflow in column %d: %w", k, ErrIllConditioned)
		}
		if max < f.minPiv {
			f.minPiv = max
		}
		if max > f.maxPiv {
			f.maxPiv = max
		}
		f.swaps[k] = p
		if p != k {
			left := min(lfirst[k], lfirst[p])
			rowP := lu[p*n+left : p*n+right+1]
			rowK := lu[k*n+left : k*n+right+1]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			lfirst[k], lfirst[p] = lfirst[p], lfirst[k]
		}
		pivot := lu[k*n+k]
		rowK := lu[k*n+k+1 : k*n+right+1]
		for i := k + 1; i <= last; i++ {
			m := lu[i*n+k] / pivot
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			rowI := lu[i*n+k+1 : i*n+right+1]
			for j := range rowK {
				rowI[j] -= m * rowK[j]
			}
		}
	}
	return f, lfirst, nil
}

// Solve solves A·x = b for a single right-hand side. b is not
// modified.
func (f *LU) Solve(b []float64) ([]float64, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("linalg: Solve rhs length %d != %d", len(b), f.n)
	}
	x := make([]float64, f.n)
	if err := f.SolveInPlace(b, x); err != nil {
		return nil, err
	}
	return x, nil
}

// SolveInPlace solves A·x = b storing the result into dst, which may
// alias b. It does not allocate, so inner simulation loops can call it
// every step. On error dst holds no meaningful values.
//
// The substitutions visit the stored factor entries in the order a
// dense solve visits its columns, so skipping the zeros is exact: for
// a finite b with no negative-zero entries, x is bit for bit what the
// dense triangular solves of the same factorization give. Elimination
// never stores a zero pivot, so the only failure is a non-finite x,
// reported as ErrIllConditioned naming its first bad component.
func (f *LU) SolveInPlace(b, dst []float64) error {
	n := f.n
	if len(b) != n || len(dst) != n {
		return fmt.Errorf("linalg: SolveInPlace length mismatch (rhs %d, dst %d, system %d)", len(b), len(dst), n)
	}
	x := dst
	copy(x, b)
	for k, p := range f.swaps {
		x[k], x[p] = x[p], x[k]
	}
	// Forward substitution with unit-diagonal L.
	l := f.l
	for i := 1; i < n; i++ {
		lo, hi := l.rowPtr[i], l.rowPtr[i+1]
		cols, vals := l.colIdx[lo:hi], l.val[lo:hi]
		s := x[i]
		for k, j := range cols {
			s -= vals[k] * x[j]
		}
		x[i] = s
	}
	// Back substitution with U. 0·v is ±0 for a finite v and NaN
	// otherwise, so chk stays zero exactly while x is finite.
	u := f.u
	chk := 0.0
	for i := n - 1; i >= 0; i-- {
		lo, hi := u.rowPtr[i], u.rowPtr[i+1]
		cols, vals := u.colIdx[lo:hi], u.val[lo:hi]
		s := x[i]
		for k, j := range cols {
			s -= vals[k] * x[j]
		}
		v := s / f.diag[i]
		x[i] = v
		chk += 0 * v
	}
	if chk == 0 {
		return nil
	}
	for i, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("solution component %d is %g (pivot condition estimate %.3g): %w",
				i, v, f.CondEstimate(), ErrIllConditioned)
		}
	}
	return nil
}
