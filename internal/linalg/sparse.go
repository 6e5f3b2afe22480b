package linalg

// csr holds a triangular factor in compressed-sparse-row form: each
// row stores only its nonzero entries, in increasing column order. It
// is built once, row by row, and is read-only afterwards.
type csr struct {
	rowPtr []int // row i occupies colIdx/val[rowPtr[i]:rowPtr[i+1]]
	colIdx []int
	val    []float64
}

// newCSR returns an empty factor of rows rows with room for nnz
// entries; appendRow fills it row by row.
func newCSR(rows, nnz int) *csr {
	return &csr{
		rowPtr: append(make([]int, 0, rows+1), 0),
		colIdx: make([]int, 0, nnz),
		val:    make([]float64, 0, nnz),
	}
}

// appendRow stores the nonzeros of the next row; row's first element
// sits in column off.
func (s *csr) appendRow(row []float64, off int) {
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

// nnz returns the number of stored entries.
func (s *csr) nnz() int { return len(s.val) }
