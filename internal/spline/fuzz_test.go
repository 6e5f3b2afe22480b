package spline

// Fuzz the precomputed-coefficient Grid.Eval against the recursive
// reference evaluator it replaced (referenceEval, kept in
// spline_test.go as the golden implementation), and Eval and EvalBatch
// against the one-line contraction the blocked kernel replaced
// (referenceContract), bit for bit. The grid shape (1–4 axes of 1–9
// knots, so the first contraction pass runs up to 729 lines and fills
// whole blocks), knot positions, values and query point are all
// derived from fuzzer input, so the equivalence is exercised far off
// the log-spaced layouts the golden test pins — including the linear
// extrapolation region. A non-finite coordinate must be an error from
// both entry points, never a panic or a NaN.

import (
	"math"
	"testing"
)

func FuzzGridEvalReference(f *testing.F) {
	f.Add(byte(1), []byte{3, 4, 10, 200, 30, 40, 7, 99, 120, 3, 250, 18, 64}, 1.5, 2.5, 0.0, 0.0)
	f.Add(byte(3), []byte{8, 8, 7, 8, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12}, -3.0, 100.0, 0.7, 41.0)
	f.Add(byte(2), []byte{0, 5, 9}, 0.0, 0.0, 1e18, -2.0)
	f.Add(byte(3), []byte{4, 0, 2, 6, 77, 13}, math.NaN(), 1.0, 1.0, 1.0)
	f.Add(byte(1), []byte{5, 5}, 1.0, math.Inf(1), 0.0, 0.0)
	f.Fuzz(func(t *testing.T, shape byte, raw []byte, c1, c2, c3, c4 float64) {
		dim := 1 + int(shape%4)
		// Deterministic byte stream, cycling raw so short inputs still
		// produce full grids.
		at := 0
		next := func() byte {
			if len(raw) == 0 {
				return 37
			}
			b := raw[at%len(raw)]
			at++
			return b
		}
		axes := make([][]float64, dim)
		size := 1
		for d := range axes {
			axes[d] = make([]float64, 1+int(next()%9))
			size *= len(axes[d])
		}
		for _, ax := range axes {
			x := 0.0
			for i := range ax {
				x += 0.25 + float64(next())/64 // strictly increasing steps
				ax[i] = x
			}
		}
		vals := make([]float64, size)
		for i := range vals {
			vals[i] = (float64(next()) - 128) / 16
		}
		g, err := NewGrid(axes, vals)
		if err != nil {
			t.Fatalf("NewGrid rejected a well-formed grid: %v", err)
		}

		raws := []float64{c1, c2, c3, c4}[:dim]
		for _, c := range raws {
			if !finite(c) {
				if v, err := g.Eval(raws...); err == nil {
					t.Fatalf("Eval(%v) = %g with nil error, want an error for a non-finite coordinate", raws, v)
				}
				if err := g.EvalBatch(raws, make([]float64, 1)); err == nil {
					t.Fatalf("EvalBatch(%v) returned nil error for a non-finite coordinate", raws)
				}
				return
			}
		}

		// Map the fuzzed query into a window one span wide around each
		// axis, covering interior, knot-exact and extrapolated points; a
		// singleton axis takes the raw coordinate.
		coords := make([]float64, dim)
		knots := make([]float64, dim)
		for d, ax := range axes {
			lo, hi := ax[0], ax[len(ax)-1]
			coords[d] = raws[d]
			if span := hi - lo; span > 0 {
				coords[d] = lo - span/2 + math.Mod(math.Abs(raws[d]), 2*span)
			}
			knots[d] = ax[int(next())%len(ax)]
		}
		got, err := g.Eval(coords...)
		if err != nil {
			t.Fatalf("Eval(%v) failed: %v", coords, err)
		}
		want := referenceEval(axes, vals, coords)
		if math.IsNaN(got) != math.IsNaN(want) {
			t.Fatalf("Eval(%v) = %g, reference = %g (NaN mismatch)", coords, got, want)
		}
		if diff := math.Abs(got - want); diff > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("Eval(%v) = %g, reference = %g (diff %g)", coords, got, want, diff)
		}

		// The blocked kernel against the one-line contraction, through
		// both entry points: the fuzzed point, a knot-exact one, and one
		// with the fuzzed last coordinate and the knot-exact others,
		// which shares the fuzzed point's last-axis pass.
		mixed := append(append([]float64(nil), knots[:dim-1]...), coords[dim-1])
		batch := append(append(append([]float64(nil), coords...), knots...), mixed...)
		out := make([]float64, 3)
		if err := g.EvalBatch(batch, out); err != nil {
			t.Fatalf("EvalBatch(%v) failed: %v", batch, err)
		}
		for q := 0; q < 3; q++ {
			p := batch[q*dim : (q+1)*dim]
			ref := referenceContract(g, p)
			if q == 0 && math.Float64bits(got) != math.Float64bits(ref) {
				t.Fatalf("Eval(%v) = %v, one-line contraction %v (bitwise)", p, got, ref)
			}
			if math.Float64bits(out[q]) != math.Float64bits(ref) {
				t.Fatalf("EvalBatch query %v = %v, one-line contraction %v (bitwise)", p, out[q], ref)
			}
		}
	})
}
