package linalg

import "fmt"

// CSR is a compressed-sparse-row real matrix: each row stores only its
// nonzero entries, in increasing column order. It is built once from a
// dense matrix and is read-only afterwards.
type CSR struct {
	Rows, Cols int
	rowPtr     []int // row i occupies colIdx/val[rowPtr[i]:rowPtr[i+1]]
	colIdx     []int
	val        []float64
}

// newCSR returns an empty rows×cols matrix with room for nnz entries;
// appendRow fills it row by row.
func newCSR(rows, cols, nnz int) *CSR {
	return &CSR{
		Rows:   rows,
		Cols:   cols,
		rowPtr: append(make([]int, 0, rows+1), 0),
		colIdx: make([]int, 0, nnz),
		val:    make([]float64, 0, nnz),
	}
}

// appendRow stores the nonzeros of the next row; row's first element
// sits in column off.
func (s *CSR) appendRow(row []float64, off int) {
	for j, v := range row {
		if v != 0 {
			s.colIdx = append(s.colIdx, off+j)
			s.val = append(s.val, v)
		}
	}
	s.rowPtr = append(s.rowPtr, len(s.val))
}

// countNonzero returns how many elements of data are not exactly zero.
func countNonzero(data []float64) int {
	nnz := 0
	for _, v := range data {
		if v != 0 {
			nnz++
		}
	}
	return nnz
}

// Compress returns m in compressed-row form, dropping exact zeros.
func Compress(m *Matrix) *CSR {
	s := newCSR(m.Rows, m.Cols, countNonzero(m.Data))
	for i := 0; i < m.Rows; i++ {
		s.appendRow(m.Data[i*m.Cols:(i+1)*m.Cols], 0)
	}
	return s
}

// NNZ returns the number of stored entries.
func (s *CSR) NNZ() int { return len(s.val) }

// MulVecTo computes dst = s·x without allocating; dst must not alias
// x. Each row sums its stored products in column order, so for finite
// x the result is bit for bit the dense MulVec of the matrix s was
// compressed from: every dropped term is a zero product, and adding
// one to a partial sum that starts at +0 never changes it.
func (s *CSR) MulVecTo(dst, x []float64) {
	if len(x) != s.Cols || len(dst) != s.Rows {
		panic(fmt.Sprintf("linalg: MulVecTo dimension mismatch: %d×%d matrix, len(x)=%d, len(dst)=%d",
			s.Rows, s.Cols, len(x), len(dst)))
	}
	for i := range dst {
		lo, hi := s.rowPtr[i], s.rowPtr[i+1]
		cols, vals := s.colIdx[lo:hi], s.val[lo:hi]
		sum := 0.0
		for k, j := range cols {
			sum += vals[k] * x[j]
		}
		dst[i] = sum
	}
}
