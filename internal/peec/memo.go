package peec

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"clockrlc/internal/units"
)

// kernelMemo evaluates hlF once per distinct limit point of a batch of
// parallel bar pairs. A pair's 64 limit points are every combination
// of its four x, four y and four z coordinates (limitPoints). Each axis
// interns its coordinates by their exact bits, and the hlF values live
// in a grid over the three interned axes, filled on first use. Aligned
// bars of equal length, filament grids and plane strips repeat most
// coordinates, so a table build's loop solves need about a fifth of
// the evaluations their pairs would make one by one.
//
// Each pair's sum then adds its 64 signed values in the closed form's
// order, so a result is bit for bit the one the pair gives alone: no
// symmetry of hlF is used, because the alternating sum cancels most of
// its digits and any reordering moves them.
//
// A memo is scratch: memoPool lends it to one call at a time, and its
// slices keep their capacity between calls.
type kernelMemo struct {
	axes [3]axisIndex
	// idx holds, per pair, each limit point's index on its axis.
	idx [][3][4]int32
	// grid holds hlF by (x, y, z) index, z fastest; NaN until
	// evaluated.
	grid []float64
	// pairs and out are PartialMatrix's pair list and results.
	pairs [][2]int32
	out   []float64
}

var memoPool = sync.Pool{New: func() any { return new(kernelMemo) }}

// mutuals sets out[p] to the partial mutual inductance of the parallel
// bars bars[pairs[p][0]] and bars[pairs[p][1]], and returns the number
// of hlF evaluations it made.
func (km *kernelMemo) mutuals(bars []Bar, pairs [][2]int32, out []float64) int64 {
	if len(pairs) == 0 {
		return 0
	}
	if km.index(bars, pairs) {
		return km.sum(bars, pairs, out)
	}
	// An irregular set, whose grid would outgrow the kernel calls it
	// replaces: each pair gets its own grid of at most 64 points.
	var evals int64
	for p := range pairs {
		km.index(bars, pairs[p:p+1]) // at most 4×4×4 points: always fits
		evals += km.sum(bars, pairs[p:p+1], out[p:p+1])
	}
	return evals
}

// index interns the limit points of every pair and clears a grid over
// them. It reports false, leaving the grid unset, when the grid would
// hold more points than the pairs' 64 kernel calls each.
func (km *kernelMemo) index(bars []Bar, pairs [][2]int32) bool {
	for d := range km.axes {
		km.axes[d].reset(4 * len(pairs))
	}
	km.idx = slices.Grow(km.idx[:0], len(pairs))[:len(pairs)]
	for p, pr := range pairs {
		pts := limitPoints(bars[pr[0]], bars[pr[1]])
		for d := range pts {
			for i, v := range pts[d] {
				km.idx[p][d][i] = km.axes[d].index(v)
			}
		}
	}
	// Two steps, so that the product cannot overflow.
	limit := 64 * len(pairs)
	nx, ny, nz := len(km.axes[0].vals), len(km.axes[1].vals), len(km.axes[2].vals)
	if nx*ny > limit || nx*ny*nz > limit {
		return false
	}
	n := nx * ny * nz
	km.grid = slices.Grow(km.grid[:0], n)[:n]
	for i := range km.grid {
		km.grid[i] = math.NaN()
	}
	return true
}

// sum adds each pair's 64 signed hlF values in the closed form's order
// (x outermost, z innermost), evaluating grid points on first use, and
// scales the sum by µ0/(4π·wa·ta·wb·tb). It returns the number of hlF
// evaluations.
func (km *kernelMemo) sum(bars []Bar, pairs [][2]int32, out []float64) int64 {
	xs, ys, zs := km.axes[0].vals, km.axes[1].vals, km.axes[2].vals
	ny, nz := len(ys), len(zs)
	var evals int64
	for p, pr := range pairs {
		ix := &km.idx[p]
		var s float64
		for i := 0; i < 4; i++ {
			for j := 0; j < 4; j++ {
				sij := sg[i] * sg[j]
				row := (int(ix[0][i])*ny + int(ix[1][j])) * nz
				for k := 0; k < 4; k++ {
					c := row + int(ix[2][k])
					v := km.grid[c]
					if math.IsNaN(v) {
						v = hlF(xs[ix[0][i]], ys[ix[1][j]], zs[ix[2][k]])
						km.grid[c] = v
						evals++
					}
					s += sij * sg[k] * v
				}
			}
		}
		a, b := bars[pr[0]], bars[pr[1]]
		den := 4 * math.Pi * a.W * a.T * b.W * b.T
		out[p] = units.Mu0 / den * s
	}
	return evals
}

// axisIndex interns one axis's coordinates by their exact bits: each
// distinct value gets the next index. It is an open-addressed hash set
// at most half full.
type axisIndex struct {
	vals  []float64 // distinct coordinates, in first-seen order
	slots []int32   // 1 + index into vals; 0 when empty
	shift uint      // 64 − log2(len(slots))
}

// reset empties the index for at most n coordinates.
func (a *axisIndex) reset(n int) {
	lg := bits.Len(uint(2*n - 1))
	a.vals = a.vals[:0]
	a.slots = slices.Grow(a.slots[:0], 1<<lg)[:1<<lg]
	clear(a.slots)
	a.shift = uint(64 - lg)
}

// index returns v's index, adding v if it is new.
func (a *axisIndex) index(v float64) int32 {
	key := math.Float64bits(v)
	mask := uint64(len(a.slots) - 1)
	for h := (key * 0x9e3779b97f4a7c15) >> a.shift; ; h = (h + 1) & mask {
		s := a.slots[h]
		if s == 0 {
			a.vals = append(a.vals, v)
			a.slots[h] = int32(len(a.vals))
			return int32(len(a.vals) - 1)
		}
		if math.Float64bits(a.vals[s-1]) == key {
			return s - 1
		}
	}
}
