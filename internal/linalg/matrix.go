// Package linalg implements the small linear-algebra kernel the
// extractor needs: real and complex matrices, LU decomposition with
// partial pivoting and linear solves.
//
// A real system is factored from Band storage, which holds the band
// partial pivoting can fill, so a caller that keeps the half-bandwidth
// bw small (sim numbers its unknowns by reverse Cuthill–McKee) stores
// O(n·bw) and factors in O(n·bw²); Factor takes a dense Matrix as the
// full band. An LU keeps its factors in compressed rows, so a solve
// costs O(nnz) with the dense loops' results, and FactorBand refactors
// into an LU's storage. The complex solver stays fully dense.
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

// Band is an n×n matrix whose nonzeros lie within half-bandwidth bw
// of the diagonal, stored by rows with room for the fill partial
// pivoting adds: row i keeps min(3·bw+1, n) columns from max(i−bw, 0),
// which hold columns i−bw through i+2·bw that lie in the matrix.
type Band struct {
	n, bw int
	w     int // row stride
	data  []float64
}

// Reset makes b the zero n×n matrix of half-bandwidth bw, reusing its
// storage. A bw of n−1 or more is the dense case.
func (b *Band) Reset(n, bw int) {
	if n < 0 || bw < 0 {
		panic("linalg: negative band dimension")
	}
	bw = max(min(bw, n-1), 0)
	b.n, b.bw, b.w = n, bw, min(3*bw+1, n)
	b.data = resize(b.data, n*b.w)
	clear(b.data)
}

// at returns the index in data of element (i, j), which may be fill.
func (b *Band) at(i, j int) int { return i*b.w + j - max(i-b.bw, 0) }

// Set assigns element (i, j), which must lie within the band.
func (b *Band) Set(i, j int, v float64) {
	if j < i-b.bw || j > i+b.bw {
		panic(fmt.Sprintf("linalg: element (%d,%d) outside half-bandwidth %d", i, j, b.bw))
	}
	b.data[b.at(i, j)] = v
}

// checkFinite rejects a band carrying NaN/Inf before a factorization
// bothers to start. The storage is row by row and zero off the matrix's
// band, so it names the first offending element in row-major order.
func (b *Band) checkFinite() error {
	for k, v := range b.data {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			i := k / b.w
			return fmt.Errorf("%w: element (%d,%d) = %g", ErrNonFinite, i, k%b.w+max(i-b.bw, 0), v)
		}
	}
	return nil
}

// LU holds the LU factorization of a square matrix with partial
// pivoting, P·A = L·U. The factors are stored compressed (exact zeros
// dropped), so each solve walks only the nonzeros that elimination
// left, fill included.
type LU struct {
	n    int
	l    csr       // strictly lower triangle of L; its unit diagonal is implicit
	u    csr       // strictly upper triangle of U
	diag []float64 // U's diagonal: the pivots
	// swaps[k] is the row exchanged with row k at elimination step k;
	// replaying the swaps in order applies P.
	swaps []int
	// minPiv/maxPiv are the extreme |pivot| magnitudes seen during
	// elimination; their ratio is a cheap condition estimate.
	minPiv, maxPiv float64
	rows           []int // FactorBand's scratch for placing L's multipliers
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
func (f *LU) NNZ() int { return len(f.l.val) + len(f.u.val) + f.n }

// Factor computes the LU factorization of square matrix a, as the
// dense case of FactorBand. The input is not modified. It returns
// ErrSingular when a pivot underflows.
func Factor(a *Matrix) (*LU, error) {
	if a.Rows != a.Cols {
		return nil, fmt.Errorf("linalg: Factor needs a square matrix, got %d×%d", a.Rows, a.Cols)
	}
	n := a.Rows
	var b Band
	b.Reset(n, n-1)
	for i := 0; i < n; i++ {
		copy(b.data[b.at(i, 0):b.at(i, n-1)+1], a.Data[i*n:i*n+n])
	}
	f := new(LU)
	if err := f.FactorBand(&b); err != nil {
		return nil, err
	}
	return f, nil
}

// FactorBand factors a into f by Gaussian elimination with partial
// pivoting, reusing f's storage; a holds scratch afterwards, and on
// error f holds no usable factorization. Rows below k+bw are untouched
// at step k, so the pivot search stops there, and the pivot row ends by
// column k+2·bw. A row exchange swaps the rows from column k on; each
// multiplier stays below its step's pivot until placed in its final row
// of L, which a row moved down can reach left of bw. The swaps, L, U
// and pivots are bit for bit those of the textbook dense elimination.
func (f *LU) FactorBand(a *Band) error {
	if err := a.checkFinite(); err != nil {
		return err
	}
	n, bw, d := a.n, a.bw, a.data
	f.n, f.minPiv, f.maxPiv = n, math.Inf(1), 0
	f.swaps = resize(f.swaps, n)
	for k := 0; k < n; k++ {
		last := min(n-1, k+bw)    // last row that can hold column k
		right := min(n-1, k+2*bw) // last column the pivot row can hold
		kk := a.at(k, k)
		// Partial pivot: find the largest |value| in column k at or
		// below the diagonal.
		p, big := k, math.Abs(d[kk])
		for i := k + 1; i <= last; i++ {
			if v := math.Abs(d[a.at(i, k)]); v > big {
				p, big = i, v
			}
		}
		if big == 0 || math.IsNaN(big) {
			return ErrSingular
		}
		if math.IsInf(big, 0) {
			// Finite input overflowed during elimination: the system is
			// numerically hopeless, not merely rank-deficient.
			return fmt.Errorf("pivot overflow in column %d: %w", k, ErrIllConditioned)
		}
		f.minPiv, f.maxPiv = min(f.minPiv, big), max(f.maxPiv, big)
		f.swaps[k] = p
		rowK, rowP := d[kk:kk+right-k+1], d[a.at(p, k):]
		for j := range rowK {
			rowK[j], rowP[j] = rowP[j], rowK[j]
		}
		pivot, rowK := rowK[0], rowK[1:]
		for i := k + 1; i <= last; i++ {
			ik := a.at(i, k)
			m := d[ik] / pivot
			d[ik] = m
			if m == 0 {
				continue
			}
			rowI := d[ik+1 : ik+1+len(rowK)]
			for j := range rowK {
				rowI[j] -= m * rowK[j]
			}
		}
	}

	// U's rows are in place. The multiplier step k left at position i
	// belongs to the row the later exchanges carry from i: rows maps each
	// position to its final row, the identity after the last step, each
	// step back undoing that step's exchange.
	f.diag = resize(f.diag, n)
	f.u.build(n, func(pass int) {
		for i := 0; i < n; i++ {
			ii := a.at(i, i)
			f.diag[i] = d[ii]
			for j := min(n-1, i+2*bw); j > i; j-- {
				if v := d[ii+j-i]; v != 0 {
					f.u.emit(pass, i, j, v)
				}
			}
		}
	})
	f.rows = resize(f.rows, n)
	rows := f.rows
	f.l.build(n, func(pass int) {
		for i := range rows {
			rows[i] = i
		}
		for k := n - 1; k >= 0; k-- {
			for i := k + 1; i <= min(n-1, k+bw); i++ {
				if m := d[a.at(i, k)]; m != 0 {
					f.l.emit(pass, rows[i], k, m)
				}
			}
			p := f.swaps[k]
			rows[k], rows[p] = rows[p], rows[k]
		}
	})
	return nil
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
	l := &f.l
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
	u := &f.u
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
