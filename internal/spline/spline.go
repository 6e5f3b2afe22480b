// Package spline implements natural cubic spline interpolation in one
// dimension and tensor-product spline interpolation over N-dimensional
// rectilinear grids — the "bi-cubic spline algorithm [10]" the paper
// uses to interpolate and extrapolate its inductance tables (the
// reference is Numerical Recipes' spline/splint/splin2 family).
//
// Grid interpolation is fully precomputed: construction solves, per
// axis, the natural-spline tridiagonal system for every unit data
// vector, storing the dense matrix that maps a line of tabulated
// values to that line's second derivatives. Because spline
// construction is linear in the data, the recursive
// interpolate-then-respline scheme collapses into one cardinal-weight
// contraction per axis, and Eval becomes a pure read of immutable
// state: lookups are goroutine-safe by construction and allocate
// nothing for table-sized grids.
package spline

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"clockrlc/internal/obs"
)

// gridEvals counts tensor-product interpolations (4 per composed
// loop-inductance lookup), lastAxisPasses the passes over the whole
// value block along the last (length) axis, most of a contraction's
// work: one per Eval, one per run of equal last coordinates in an
// EvalBatch. Each is one atomic add, negligible next to a pass.
var (
	gridEvals      = obs.GetCounter("spline.evals")
	lastAxisPasses = obs.GetCounter("spline.last_axis_passes")
)

// Spline1D is a natural cubic spline through strictly increasing
// abscissae.
type Spline1D struct {
	xs, ys, y2 []float64
}

// New1D constructs a natural cubic spline (second derivative zero at
// both ends) through the points (xs[i], ys[i]). xs must be strictly
// increasing with at least two points.
func New1D(xs, ys []float64) (*Spline1D, error) {
	n := len(xs)
	if n != len(ys) {
		return nil, fmt.Errorf("spline: %d abscissae but %d ordinates", n, len(ys))
	}
	if n < 2 {
		return nil, errors.New("spline: need at least two points")
	}
	for i := 1; i < n; i++ {
		if xs[i] <= xs[i-1] {
			return nil, fmt.Errorf("spline: abscissae must be strictly increasing (x[%d]=%g, x[%d]=%g)",
				i-1, xs[i-1], i, xs[i])
		}
	}
	s := &Spline1D{
		xs: append([]float64(nil), xs...),
		ys: append([]float64(nil), ys...),
		y2: make([]float64, n),
	}
	// Tridiagonal solve for second derivatives, natural boundary
	// conditions (Numerical Recipes "spline").
	u := make([]float64, n)
	for i := 1; i < n-1; i++ {
		sig := (xs[i] - xs[i-1]) / (xs[i+1] - xs[i-1])
		p := sig*s.y2[i-1] + 2
		s.y2[i] = (sig - 1) / p
		u[i] = (ys[i+1]-ys[i])/(xs[i+1]-xs[i]) - (ys[i]-ys[i-1])/(xs[i]-xs[i-1])
		u[i] = (6*u[i]/(xs[i+1]-xs[i-1]) - sig*u[i-1]) / p
	}
	for k := n - 2; k >= 0; k-- {
		s.y2[k] = s.y2[k]*s.y2[k+1] + u[k]
	}
	return s, nil
}

// Eval evaluates the spline at x. Inside the data range the cubic
// interpolant is used; outside, the spline is continued linearly with
// the end slope, which keeps table extrapolation (the paper allows
// mild extrapolation) from blowing up cubically.
func (s *Spline1D) Eval(x float64) float64 {
	n := len(s.xs)
	if x <= s.xs[0] {
		return s.ys[0] + s.slopeAt(0)*(x-s.xs[0])
	}
	if x >= s.xs[n-1] {
		return s.ys[n-1] + s.slopeAt(n-1)*(x-s.xs[n-1])
	}
	hi := sort.SearchFloat64s(s.xs, x)
	lo := hi - 1
	h := s.xs[hi] - s.xs[lo]
	a := (s.xs[hi] - x) / h
	b := (x - s.xs[lo]) / h
	return a*s.ys[lo] + b*s.ys[hi] +
		((a*a*a-a)*s.y2[lo]+(b*b*b-b)*s.y2[hi])*h*h/6
}

// slopeAt returns the spline's first derivative at knot i (used for
// linear extrapolation beyond the table).
func (s *Spline1D) slopeAt(i int) float64 {
	n := len(s.xs)
	switch i {
	case 0:
		h := s.xs[1] - s.xs[0]
		return (s.ys[1]-s.ys[0])/h - h/6*(2*s.y2[0]+s.y2[1])
	case n - 1:
		h := s.xs[n-1] - s.xs[n-2]
		return (s.ys[n-1]-s.ys[n-2])/h + h/6*(s.y2[n-2]+2*s.y2[n-1])
	default:
		h := s.xs[i+1] - s.xs[i]
		return (s.ys[i+1]-s.ys[i])/h - h/6*(2*s.y2[i]+s.y2[i+1])
	}
}

// Grid is an N-dimensional rectilinear table with tensor-product
// cubic-spline interpolation: exactly the bicubic scheme for two axes,
// generalised to the four axes of the mutual-inductance table.
//
// Concurrency contract: Eval reads only state fixed at construction
// (the coefficient matrices depend on the axes alone), so any number
// of goroutines may Eval one Grid concurrently. Set writes a value in
// place and must not race with Eval; treat values as immutable once a
// grid is shared.
type Grid struct {
	// Axes holds the strictly increasing coordinates of each
	// dimension. Axes of length 1 are allowed and treated as constant.
	Axes [][]float64
	// Vals holds the table values in row-major order with the last
	// axis varying fastest; len(Vals) = Π len(Axes[d]).
	Vals []float64

	// coef[d] is the len(Axes[d])×len(Axes[d]) row-major matrix
	// taking a line of values along axis d to that line's natural
	// cubic-spline second derivatives (nil for singleton axes).
	// Computed once at construction from the axes alone.
	coef [][]float64
	// scratchLen is the per-Eval scratch requirement: one packed
	// weight vector per axis, then the last-axis pass' result, then
	// the buffer the remaining passes shrink in place (see contract).
	scratchLen int
	// pool recycles scratch for grids too large for the stack buffer.
	pool *sync.Pool
}

// evalStackScratch is the scratch size (in float64s) an Eval keeps on
// the stack; larger grids fall back to a per-grid sync.Pool. The
// default mutual table (6×6×6×8) needs 26 + 216 + 36 = 278.
const evalStackScratch = 512

// NewGrid validates a table and precomputes its per-axis spline
// coefficient matrices.
func NewGrid(axes [][]float64, vals []float64) (*Grid, error) {
	return newGrid(axes, vals, nil)
}

// NewGridWithCoef constructs a grid from axes, values and per-axis
// coefficient matrices computed by an earlier NewGrid over the same
// axes (Coef exports them). The matrices are validated for shape but
// not recomputed, so a persisted grid reconstructs without solving a
// single tridiagonal system — and, because secondDerivMatrix is
// deterministic, a grid built this way evaluates bit-identically to
// one built by NewGrid. coef may alias read-only memory (e.g. a file
// mapping); NewGridWithCoef never writes through it.
func NewGridWithCoef(axes [][]float64, vals []float64, coef [][]float64) (*Grid, error) {
	if len(coef) != len(axes) {
		return nil, fmt.Errorf("spline: %d coefficient matrices for %d axes", len(coef), len(axes))
	}
	for d, ax := range axes {
		switch {
		case len(ax) <= 1:
			if len(coef[d]) != 0 {
				return nil, fmt.Errorf("spline: axis %d is singleton but has %d coefficients", d, len(coef[d]))
			}
		case len(coef[d]) != len(ax)*len(ax):
			return nil, fmt.Errorf("spline: axis %d needs a %d×%d coefficient matrix, got %d values",
				d, len(ax), len(ax), len(coef[d]))
		}
	}
	return newGrid(axes, vals, coef)
}

// newGrid is the shared constructor: coef == nil recomputes the
// matrices, otherwise the (shape-validated) provided ones are adopted.
func newGrid(axes [][]float64, vals []float64, coef [][]float64) (*Grid, error) {
	if len(axes) == 0 {
		return nil, errors.New("spline: grid needs at least one axis")
	}
	size := 1
	for d, ax := range axes {
		if len(ax) == 0 {
			return nil, fmt.Errorf("spline: axis %d is empty", d)
		}
		for i := 1; i < len(ax); i++ {
			if ax[i] <= ax[i-1] {
				return nil, fmt.Errorf("spline: axis %d not strictly increasing at %d", d, i)
			}
		}
		size *= len(ax)
	}
	if len(vals) != size {
		return nil, fmt.Errorf("spline: grid needs %d values, got %d", size, len(vals))
	}
	g := &Grid{Axes: axes, Vals: vals, coef: coef}
	if g.coef == nil {
		g.coef = make([][]float64, len(axes))
	}
	wsum := 0
	for d, ax := range axes {
		wsum += len(ax)
		if coef == nil && len(ax) > 1 {
			g.coef[d] = secondDerivMatrix(ax)
		}
	}
	last := size / len(axes[len(axes)-1])
	g.scratchLen = wsum + last
	if len(axes) > 1 {
		g.scratchLen += last / len(axes[len(axes)-2])
	}
	if g.scratchLen > evalStackScratch {
		n := g.scratchLen
		g.pool = &sync.Pool{New: func() any {
			s := make([]float64, n)
			return &s
		}}
	}
	return g, nil
}

// Coef exports axis d's precomputed second-derivative matrix (nil for
// singleton axes) so a codec can persist it next to the values and
// reconstruct the grid with NewGridWithCoef, skipping the per-axis
// tridiagonal solves at load. The returned slice is the grid's own
// immutable state; callers must not modify it.
func (g *Grid) Coef(d int) []float64 { return g.coef[d] }

// secondDerivMatrix returns the dense row-major matrix M with
// M[i][j] = second derivative at knot i of the natural cubic spline
// through the unit data vector e_j — i.e. y2 = M·y for any data y,
// by linearity of the tridiagonal construction.
func secondDerivMatrix(xs []float64) []float64 {
	n := len(xs)
	m := make([]float64, n*n)
	e := make([]float64, n)
	for j := 0; j < n; j++ {
		e[j] = 1
		s, err := New1D(xs, e)
		if err != nil {
			// Axes were validated by the caller.
			panic(err)
		}
		for i := 0; i < n; i++ {
			m[i*n+j] = s.y2[i]
		}
		e[j] = 0
	}
	return m
}

// Dim returns the number of axes.
func (g *Grid) Dim() int { return len(g.Axes) }

// At returns the tabulated value at integer indices.
func (g *Grid) At(idx ...int) float64 {
	return g.Vals[g.offset(idx)]
}

// Set stores a tabulated value at integer indices. The interpolation
// coefficients depend only on the axes, so the new value takes effect
// on the next Eval with no cache to invalidate. Set must not race
// with concurrent Eval on the same grid.
func (g *Grid) Set(v float64, idx ...int) {
	g.Vals[g.offset(idx)] = v
}

func (g *Grid) offset(idx []int) int {
	if len(idx) != len(g.Axes) {
		panic(fmt.Sprintf("spline: %d indices for %d axes", len(idx), len(g.Axes)))
	}
	off := 0
	for d, i := range idx {
		if i < 0 || i >= len(g.Axes[d]) {
			panic(fmt.Sprintf("spline: index %d out of range for axis %d (size %d)", i, d, len(g.Axes[d])))
		}
		off = off*len(g.Axes[d]) + i
	}
	return off
}

// Eval interpolates the table at the given coordinates using
// tensor-product natural cubic splines. The recursive
// spline-of-spline interpolant is linear in the tabulated values, so
// it factors into one cardinal-weight vector per axis (built from the
// precomputed coefficient matrices) contracted against the value
// block, last axis first. Eval never mutates the grid; see the Grid
// concurrency contract. Singleton axes pass their value through. A
// NaN or infinite coordinate is an error: no finite weight vector
// represents it.
func (g *Grid) Eval(coords ...float64) (float64, error) {
	gridEvals.Inc()
	if len(coords) != len(g.Axes) {
		return 0, fmt.Errorf("spline: %d coordinates for %d axes", len(coords), len(g.Axes))
	}
	for d, x := range coords {
		if !finite(x) {
			return 0, fmt.Errorf("spline: coordinate %d is %g, want a finite value", d, x)
		}
	}
	var stack [evalStackScratch]float64
	scratch := stack[:]
	if g.scratchLen > evalStackScratch {
		p := g.pool.Get().(*[]float64)
		defer g.pool.Put(p)
		scratch = *p
	}

	// Cardinal weights per axis, packed into the scratch head.
	wOff := 0
	for d, ax := range g.Axes {
		axisWeights(ax, g.coef[d], coords[d], scratch[wOff:wOff+len(ax)])
		wOff += len(ax)
	}
	lastAxisPasses.Inc()
	return g.contract(scratch, wOff, true), nil
}

// contract folds the value block against the per-axis cardinal weight
// vectors packed into scratch[:wOff], one axis at a time, last
// (fastest-varying, unit-stride) axis first. The last-axis pass reads
// g.Vals into the region that follows the weights. With lastPass
// false it is skipped: the region already holds the pass of an earlier
// contract call under the same last weight vector, which EvalBatch
// shares between queries that agree in their last coordinate. The
// remaining passes never write the region: the first reads it into the
// buffer after it, the later ones shrink that buffer in place. The
// weight vectors are read-only here, so a caller may reuse them across
// contractions. Every pass is one axisPass, shared by Eval and
// EvalBatch, so both perform the identical float operations in the
// identical order.
func (g *Grid) contract(scratch []float64, wOff int, lastPass bool) float64 {
	d := len(g.Axes) - 1
	n := len(g.Axes[d])
	cur := scratch[wOff : wOff+len(g.Vals)/n]
	buf := scratch[wOff+len(cur):]
	wOff -= n
	if lastPass {
		axisPass(scratch[wOff:wOff+n], g.Vals, cur)
	}
	for d--; d >= 0; d-- {
		n = len(g.Axes[d])
		wOff -= n
		next := buf[:len(cur)/n]
		axisPass(scratch[wOff:wOff+n], cur, next)
		cur = next
	}
	return cur[0]
}

// axisPass contracts one axis: dst[i] = Σ_j w[j]·src[i·n+j] for the
// len(dst) consecutive lines of n = len(w) values in src. dst may be
// the front of src: the write index never overtakes the read window.
// It sums four lines per sweep of the weight vector — every line in
// ascending index order from +0, exactly as a one-line loop would, so
// blocking changes no bit — and finishes the lines left over one at a
// time. The four independent add chains overlap in the CPU where one
// chain waits on each add's latency: on amd64 a 6×6×6×8 query, weights
// and contraction, took 0.91–0.99 µs with four lines, 1.06–1.19 µs
// with eight and 2.05–2.26 µs with one.
func axisPass(w, src, dst []float64) {
	n := len(w)
	lines := len(dst)
	i := 0
	for ; i+4 <= lines; i += 4 {
		// Re-slicing each line to len(w) lets the compiler drop the
		// bounds checks in the inner loop.
		b := src[i*n:]
		l0, l1, l2, l3 := b[:len(w)], b[n:][:len(w)], b[2*n:][:len(w)], b[3*n:][:len(w)]
		var a0, a1, a2, a3 float64
		for j, wj := range w {
			a0 += wj * l0[j]
			a1 += wj * l1[j]
			a2 += wj * l2[j]
			a3 += wj * l3[j]
		}
		// The block's lines were all read above, and the writes land
		// at indices below the next block's first value.
		dst[i], dst[i+1], dst[i+2], dst[i+3] = a0, a1, a2, a3
	}
	for ; i < lines; i++ {
		acc := 0.0
		base := i * n
		for j := 0; j < n; j++ {
			acc += w[j] * src[base+j]
		}
		dst[i] = acc
	}
}

// finite reports whether x is neither NaN nor infinite.
func finite(x float64) bool { return !math.IsNaN(x) && !math.IsInf(x, 0) }

// axisWeights fills w (len(ax) wide) with the cardinal weights of the
// 1-D natural-spline interpolant on knots ax at coordinate x, so that
// the interpolated value is Σ_j w[j]·y[j] for any data line y. m is
// the axis' second-derivative matrix (nil for singleton axes).
// Outside the knot range the weights realise the same linear
// end-slope continuation as Spline1D.Eval.
func axisWeights(ax, m []float64, x float64, w []float64) {
	n := len(ax)
	if n == 1 {
		w[0] = 1
		return
	}
	for i := range w {
		w[i] = 0
	}
	switch {
	case x <= ax[0]:
		h := ax[1] - ax[0]
		dx := x - ax[0]
		w[0] = 1 - dx/h
		w[1] = dx / h
		f := -dx * h / 6
		for j := 0; j < n; j++ {
			w[j] += f * (2*m[j] + m[n+j])
		}
	case x >= ax[n-1]:
		h := ax[n-1] - ax[n-2]
		dx := x - ax[n-1]
		w[n-1] = 1 + dx/h
		w[n-2] = -dx / h
		f := dx * h / 6
		for j := 0; j < n; j++ {
			w[j] += f * (m[(n-2)*n+j] + 2*m[(n-1)*n+j])
		}
	default:
		hi := sort.SearchFloat64s(ax, x)
		lo := hi - 1
		h := ax[hi] - ax[lo]
		a := (ax[hi] - x) / h
		b := (x - ax[lo]) / h
		w[lo] = a
		w[hi] = b
		ca := (a*a*a - a) * h * h / 6
		cb := (b*b*b - b) * h * h / 6
		for j := 0; j < n; j++ {
			w[j] += ca*m[lo*n+j] + cb*m[hi*n+j]
		}
	}
}
