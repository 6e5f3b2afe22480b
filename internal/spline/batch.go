package spline

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
)

// orderPool recycles the query-permutation slices EvalBatch sorts.
// One pool serves every grid: the slice is resized to the batch at
// hand and holds indices, not grid state.
var orderPool = sync.Pool{New: func() any { return new([]int) }}

// EvalBatch interpolates the table at nq = len(out) coordinate tuples
// packed row-major into coords (len(coords) = nq*Dim(): query i's
// coordinates are coords[i*Dim():(i+1)*Dim()]) and writes result i to
// out[i].
//
// Each result is bit-identical to Eval(coords[i*Dim():...]) — the
// batch path runs Eval's weight construction and contraction passes
// verbatim — but the batch amortises work across queries. Queries are
// visited in last-axis-major order: by the last (length) coordinate,
// then by the others from axis 0 on, then by input index. The pass
// over the last axis, which reads the whole value block and is most
// of a contraction's work, runs once per run of equal last
// coordinates; the run's queries share it and run only the smaller
// remaining passes. The two self and the two mutual lookups of a loop
// composition all read their segment's length. A per-axis cardinal
// weight vector is rebuilt only when that axis' coordinate changes
// between consecutive queries, and a query whose whole tuple repeats
// the previous one copies its result without contracting at all —
// the shape of clock trees, which repeat a handful of segment
// geometries across thousands of sinks.
//
// Sharing is keyed on exact float equality only — never on proximity
// — which is what keeps batch results bit-identical to the scalar loop
// regardless of input order: a pass depends only on the table and its
// axis' weight vector, and that only on the coordinate. coords and the
// grid are not mutated, and the shared pass lives in the call's own
// scratch; like Eval, EvalBatch is safe for concurrent use. A NaN or
// infinite coordinate anywhere in the batch is an error naming the
// first such query, and no result is written.
func (g *Grid) EvalBatch(coords, out []float64) error {
	dim := len(g.Axes)
	nq := len(out)
	if len(coords) != nq*dim {
		return fmt.Errorf("spline: batch of %d queries over %d axes needs %d coordinates, got %d",
			nq, dim, nq*dim, len(coords))
	}
	for k, x := range coords {
		if !finite(x) {
			return fmt.Errorf("spline: batch query %d coordinate %d is %g, want a finite value", k/dim, k%dim, x)
		}
	}
	if nq == 0 {
		return nil
	}
	gridEvals.Add(int64(nq))

	op := orderPool.Get().(*[]int)
	defer orderPool.Put(op)
	order := *op
	if cap(order) < nq {
		order = make([]int, nq)
		*op = order
	}
	order = order[:nq]
	for i := range order {
		order[i] = i
	}
	// Last-axis-major order (then axes 0…dim−2, then input index)
	// makes queries that share a last coordinate adjacent, so they
	// share its pass, and keeps identical tuples adjacent. The
	// coordinates are finite, so cmp.Compare orders them as < does.
	// slices.SortFunc allocates nothing where sort.Slice's reflective
	// swapper does, which keeps one-query lookups allocation-free.
	last := dim - 1
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(coords[a*dim+last], coords[b*dim+last]); c != 0 {
			return c
		}
		for d := 0; d < last; d++ {
			if c := cmp.Compare(coords[a*dim+d], coords[b*dim+d]); c != 0 {
				return c
			}
		}
		return cmp.Compare(a, b)
	})

	var stack [evalStackScratch]float64
	scratch := stack[:]
	if g.scratchLen > evalStackScratch {
		p := g.pool.Get().(*[]float64)
		defer g.pool.Put(p)
		scratch = *p
	}

	prev := -1 // input index of the last query that contracted
	passes := 0
	for _, qi := range order {
		q := coords[qi*dim : qi*dim+dim]
		if prev >= 0 {
			p := coords[prev*dim : prev*dim+dim]
			same := true
			for d := 0; d < dim; d++ {
				if q[d] != p[d] {
					same = false
					break
				}
			}
			if same {
				out[qi] = out[prev]
				continue
			}
		}
		wOff := 0
		for d, ax := range g.Axes {
			// contract leaves scratch[:wOff] untouched, so an axis
			// whose coordinate matches the previous query keeps its
			// weight vector as-is.
			if prev < 0 || coords[prev*dim+d] != q[d] {
				axisWeights(ax, g.coef[d], q[d], scratch[wOff:wOff+len(ax)])
			}
			wOff += len(ax)
		}
		// A last coordinate equal to the previous query's leaves both
		// its weight vector and its pass in scratch.
		lastPass := prev < 0 || coords[prev*dim+last] != q[last]
		if lastPass {
			passes++
		}
		out[qi] = g.contract(scratch, wOff, lastPass)
		prev = qi
	}
	lastAxisPasses.Add(int64(passes))
	return nil
}
