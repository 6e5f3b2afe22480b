package linalg

// csr holds a triangular factor in compressed-sparse-row form: each
// row stores only its nonzero entries, in increasing column order.
type csr struct {
	rowPtr []int // row i occupies colIdx/val[rowPtr[i]:rowPtr[i+1]]
	colIdx []int
	val    []float64
}

// build lays out n rows from two runs of visit, which must emit the
// same entries through s.emit both times, each row's by descending
// column: pass 0 counts each row's entries, pass 1 fills each row from
// its end. The arrays are reused when large enough.
func (s *csr) build(n int, visit func(pass int)) {
	s.rowPtr = resize(s.rowPtr, n+1)
	clear(s.rowPtr)
	visit(0)
	for i := 0; i < n; i++ {
		s.rowPtr[i+1] += s.rowPtr[i]
	}
	nnz := s.rowPtr[n]
	s.colIdx, s.val = resize(s.colIdx, nnz), resize(s.val, nnz)
	visit(1)
	// Each rowPtr[i+1] now holds row i's start.
	copy(s.rowPtr, s.rowPtr[1:])
	s.rowPtr[n] = nnz
}

// emit counts an entry on pass 0 of build and stores it on pass 1.
func (s *csr) emit(pass, row, col int, v float64) {
	if pass == 0 {
		s.rowPtr[row+1]++
		return
	}
	s.rowPtr[row+1]--
	s.colIdx[s.rowPtr[row+1]], s.val[s.rowPtr[row+1]] = col, v
}

// resize returns s with length n, reusing its array when it is large
// enough. The contents are not cleared.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
