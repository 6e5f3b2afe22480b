package spline

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"testing/quick"
)

func linspace(a, b float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = a + (b-a)*float64(i)/float64(n-1)
	}
	return out
}

func logspace(a, b float64, n int) []float64 {
	out := make([]float64, n)
	la, lb := math.Log(a), math.Log(b)
	for i := range out {
		out[i] = math.Exp(la + (lb-la)*float64(i)/float64(n-1))
	}
	return out
}

func TestSpline1DReproducesKnots(t *testing.T) {
	xs := []float64{0, 1, 2.5, 4, 7}
	ys := []float64{1, -2, 0.5, 3, -1}
	s, err := New1D(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for i, x := range xs {
		if got := s.Eval(x); math.Abs(got-ys[i]) > 1e-12 {
			t.Errorf("Eval(%g) = %g, want knot %g", x, got, ys[i])
		}
	}
}

func TestSpline1DExactForLinear(t *testing.T) {
	xs := linspace(0, 10, 7)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = 3*x - 2
	}
	s, err := New1D(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{-2, 0.7, 3.3, 9.99, 15} {
		want := 3*x - 2
		if got := s.Eval(x); math.Abs(got-want) > 1e-10 {
			t.Errorf("linear reproduction failed at %g: %g vs %g", x, got, want)
		}
	}
}

func TestSpline1DSinAccuracy(t *testing.T) {
	xs := linspace(0, math.Pi, 12)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = math.Sin(x)
	}
	s, err := New1D(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for x := 0.05; x < math.Pi; x += 0.1 {
		if err := math.Abs(s.Eval(x) - math.Sin(x)); err > 2e-3 {
			t.Errorf("sin interp error %g at %g", err, x)
		}
	}
}

func TestSpline1DLogLikeInductanceCurve(t *testing.T) {
	// The inductance tables are smooth log-like functions of length;
	// with the log-spaced knots the table builder uses, interpolation
	// error must be tiny on such shapes.
	f := func(l float64) float64 { return l * (math.Log(2*l/3e-6) + 0.5) }
	xs := logspace(100e-6, 6000e-6, 9)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = f(x)
	}
	s, err := New1D(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range []float64{150e-6, 777e-6, 2500e-6, 5900e-6} {
		rel := math.Abs(s.Eval(x)-f(x)) / f(x)
		// The natural boundary condition caps accuracy in the first
		// panel; 0.2 % there, much better in the interior.
		if rel > 2e-3 {
			t.Errorf("rel error %g at %g", rel, x)
		}
	}
}

func TestSpline1DLinearExtrapolation(t *testing.T) {
	xs := linspace(0, 1, 5)
	ys := make([]float64, len(xs))
	for i, x := range xs {
		ys[i] = x * x
	}
	s, err := New1D(xs, ys)
	if err != nil {
		t.Fatal(err)
	}
	// Beyond the right end the continuation must be linear: second
	// differences vanish.
	d1 := s.Eval(1.2) - s.Eval(1.1)
	d2 := s.Eval(1.3) - s.Eval(1.2)
	if math.Abs(d1-d2) > 1e-12 {
		t.Errorf("extrapolation not linear: deltas %g vs %g", d1, d2)
	}
	// And continuous at the boundary.
	if math.Abs(s.Eval(1+1e-9)-s.Eval(1-1e-9)) > 1e-6 {
		t.Error("extrapolation discontinuous at right end")
	}
}

func TestNew1DErrors(t *testing.T) {
	if _, err := New1D([]float64{0, 1}, []float64{1}); err == nil {
		t.Error("accepted mismatched lengths")
	}
	if _, err := New1D([]float64{0}, []float64{1}); err == nil {
		t.Error("accepted single point")
	}
	if _, err := New1D([]float64{0, 0}, []float64{1, 2}); err == nil {
		t.Error("accepted non-increasing abscissae")
	}
}

func TestGridBicubicProductFunction(t *testing.T) {
	// f(x, y) = (x² + 1)(y + 2): smooth, separable.
	xs := linspace(0, 2, 7)
	ys := linspace(-1, 1, 6)
	vals := make([]float64, len(xs)*len(ys))
	for i, x := range xs {
		for j, y := range ys {
			vals[i*len(ys)+j] = (x*x + 1) * (y + 2)
		}
	}
	g, err := NewGrid([][]float64{xs, ys}, vals)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range [][2]float64{{0.3, 0.4}, {1.77, -0.9}, {1.01, 0}} {
		want := (p[0]*p[0] + 1) * (p[1] + 2)
		got, err := g.Eval(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got-want) / want; rel > 2e-3 {
			t.Errorf("bicubic error %g at %v", rel, p)
		}
	}
}

func TestGrid4DInterpolation(t *testing.T) {
	// Shape of the mutual table: (w1, w2, s, l), smooth in each axis.
	w1 := linspace(1, 4, 4)
	w2 := linspace(1, 4, 4)
	sp := logspace(1, 8, 5)
	ln := logspace(100, 1000, 6)
	f := func(a, b, s, l float64) float64 {
		return l * math.Log(1+l/(s+a/2+b/2))
	}
	vals := make([]float64, 0, 4*4*5*5)
	for _, a := range w1 {
		for _, b := range w2 {
			for _, s := range sp {
				for _, l := range ln {
					vals = append(vals, f(a, b, s, l))
				}
			}
		}
	}
	g, err := NewGrid([][]float64{w1, w2, sp, ln}, vals)
	if err != nil {
		t.Fatal(err)
	}
	pts := [][4]float64{
		{1.5, 2.5, 3.3, 550},
		{3.2, 1.1, 6.7, 130},
		{2, 2, 2, 900},
	}
	for _, p := range pts {
		want := f(p[0], p[1], p[2], p[3])
		got, err := g.Eval(p[0], p[1], p[2], p[3])
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(got-want) / want; rel > 0.01 {
			t.Errorf("4-D interp rel error %g at %v", rel, p)
		}
	}
}

func TestGridSingletonAxis(t *testing.T) {
	g, err := NewGrid([][]float64{{5}, {0, 1, 2}}, []float64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Eval(99, 1.5) // singleton axis coordinate ignored
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-2.5) > 1e-9 {
		t.Errorf("singleton-axis eval = %g, want 2.5", got)
	}
}

func TestGridAtSetRoundTrip(t *testing.T) {
	g, err := NewGrid([][]float64{{0, 1}, {0, 1, 2}}, make([]float64, 6))
	if err != nil {
		t.Fatal(err)
	}
	g.Set(42, 1, 2)
	if g.At(1, 2) != 42 {
		t.Error("Set/At round trip failed")
	}
	if g.At(0, 0) != 0 {
		t.Error("Set leaked to other cells")
	}
}

func TestGridErrors(t *testing.T) {
	if _, err := NewGrid(nil, nil); err == nil {
		t.Error("accepted empty axes")
	}
	if _, err := NewGrid([][]float64{{0, 1}}, []float64{1}); err == nil {
		t.Error("accepted wrong value count")
	}
	if _, err := NewGrid([][]float64{{1, 0}}, []float64{1, 2}); err == nil {
		t.Error("accepted decreasing axis")
	}
	g, _ := NewGrid([][]float64{{0, 1}}, []float64{1, 2})
	if _, err := g.Eval(0.5, 0.5); err == nil {
		t.Error("accepted wrong coordinate count")
	}
}

// referenceEval is the pre-coefficient recursive evaluator the Grid
// replaced: a spline along the first axis through values each obtained
// by recursively interpolating the remaining axes with freshly built
// natural splines. Kept here as the golden reference for the
// precomputed cardinal-weight contraction.
func referenceEval(axes [][]float64, vals, coords []float64) float64 {
	ax := axes[0]
	if len(axes) == 1 {
		if len(ax) == 1 {
			return vals[0]
		}
		s, err := New1D(ax, vals)
		if err != nil {
			panic(err)
		}
		return s.Eval(coords[0])
	}
	stride := len(vals) / len(ax)
	line := make([]float64, len(ax))
	for i := range ax {
		line[i] = referenceEval(axes[1:], vals[i*stride:(i+1)*stride], coords[1:])
	}
	if len(ax) == 1 {
		return line[0]
	}
	s, err := New1D(ax, line)
	if err != nil {
		panic(err)
	}
	return s.Eval(coords[0])
}

// referenceContract is the one-line contraction Grid.contract blocks:
// the same cardinal weights, each line summed on its own in ascending
// index order from +0. Kept as the bit-identity oracle for the blocked
// kernel — the two must agree in every bit, not merely to a tolerance.
func referenceContract(g *Grid, coords []float64) float64 {
	cur := g.Vals
	w := make([][]float64, len(g.Axes))
	for d, ax := range g.Axes {
		w[d] = make([]float64, len(ax))
		axisWeights(ax, g.coef[d], coords[d], w[d])
	}
	for d := len(g.Axes) - 1; d >= 0; d-- {
		n := len(w[d])
		next := make([]float64, len(cur)/n)
		for i := range next {
			acc := 0.0
			for j := 0; j < n; j++ {
				acc += w[d][j] * cur[i*n+j]
			}
			next[i] = acc
		}
		cur = next
	}
	return cur[0]
}

// TestContractMatchesOneLineReference: Eval and EvalBatch equal the
// one-line contraction bit for bit on grids whose first pass runs
// 1–17 lines, so every split into whole blocks and a tail occurs,
// including grids with singleton axes first, in the middle and last.
// Each axis is probed on both extrapolation sides, at its end knots,
// at an interior knot and between knots.
func TestContractMatchesOneLineReference(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	axis := func(n int) []float64 {
		ax := make([]float64, n)
		x := rng.Float64()
		for i := range ax {
			x += 0.3 + rng.Float64()
			ax[i] = x
		}
		return ax
	}
	probes := func(ax []float64) []float64 {
		lo, hi := ax[0], ax[len(ax)-1]
		if len(ax) == 1 {
			return []float64{lo - 1, lo, lo + 2}
		}
		return []float64{
			lo - 0.7*(hi-lo), lo, (ax[0] + ax[1]) / 2,
			ax[len(ax)/2], hi, hi + 0.4*(hi-lo),
		}
	}
	var shapes [][]int
	for lines := 1; lines <= 17; lines++ {
		shapes = append(shapes, []int{lines, 5}, []int{1, lines, 3}, []int{lines, 1})
		for a := 2; a*a <= lines; a++ {
			if lines%a == 0 {
				shapes = append(shapes, []int{a, lines / a, 4}, []int{lines / a, 1, a, 2})
			}
		}
	}
	shapes = append(shapes, []int{6, 6, 6, 8}, []int{6, 6, 5, 8})
	for _, shape := range shapes {
		axes := make([][]float64, len(shape))
		size := 1
		for d, n := range shape {
			axes[d] = axis(n)
			size *= n
		}
		vals := make([]float64, size)
		for i := range vals {
			vals[i] = rng.NormFloat64()
		}
		g, err := NewGrid(axes, vals)
		if err != nil {
			t.Fatal(err)
		}
		var coords []float64
		var rec func(d int, c []float64)
		rec = func(d int, c []float64) {
			if d == len(axes) {
				coords = append(coords, c...)
				return
			}
			for _, x := range probes(axes[d]) {
				c[d] = x
				rec(d+1, c)
			}
		}
		rec(0, make([]float64, len(axes)))

		dim := len(axes)
		out := make([]float64, len(coords)/dim)
		if err := g.EvalBatch(coords, out); err != nil {
			t.Fatal(err)
		}
		for q := range out {
			c := coords[q*dim : (q+1)*dim]
			want := referenceContract(g, c)
			got, err := g.Eval(c...)
			if err != nil {
				t.Fatal(err)
			}
			if math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("shape %v: Eval(%v) = %v, one-line contraction %v (bitwise)", shape, c, got, want)
			}
			if math.Float64bits(out[q]) != math.Float64bits(want) {
				t.Fatalf("shape %v: EvalBatch query %v = %v, one-line contraction %v (bitwise)", shape, c, out[q], want)
			}
		}
	}
}

// TestEvalRejectsNonFinite: a NaN or infinite coordinate on any axis,
// singleton axes included, is an error from Eval and from EvalBatch —
// never a bracket-search panic or a NaN with a nil error — and a
// rejected batch writes no result.
func TestEvalRejectsNonFinite(t *testing.T) {
	g, err := NewGrid([][]float64{{1, 2, 4}, {7}, {0, 1, 3, 6}}, make([]float64, 12))
	if err != nil {
		t.Fatal(err)
	}
	good := []float64{1.5, 7, 2}
	for d := range good {
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			q := append([]float64(nil), good...)
			q[d] = bad
			if v, err := g.Eval(q...); err == nil {
				t.Errorf("Eval(%v) = %g with nil error, want an error", q, v)
			}
			coords := append(append(append([]float64(nil), good...), q...), good...)
			out := []float64{-1, -1, -1}
			err := g.EvalBatch(coords, out)
			if err == nil || !strings.Contains(err.Error(), "batch query 1") {
				t.Errorf("EvalBatch with %g on axis %d: got %v, want an error naming query 1", bad, d, err)
			}
			for i, v := range out {
				if v != -1 {
					t.Errorf("rejected batch wrote out[%d] = %g", i, v)
				}
			}
		}
	}
}

// Golden equivalence: on grids shaped like the inductance tables (2-D
// self over width×length, 4-D mutual over w1×w2×spacing×length, log
// axes), the precomputed-coefficient Eval must match the recursive
// reference to 1e-12 relative — on knots, off grid and in the linear
// extrapolation region of every axis.
func TestGridMatchesRecursiveReference(t *testing.T) {
	selfAxes := [][]float64{logspace(0.6e-6, 20e-6, 6), logspace(50e-6, 8000e-6, 8)}
	mutAxes := [][]float64{
		logspace(0.6e-6, 20e-6, 6), logspace(0.6e-6, 20e-6, 6),
		logspace(0.6e-6, 40e-6, 5), logspace(50e-6, 8000e-6, 8),
	}
	fill := func(axes [][]float64, f func(c []float64) float64) []float64 {
		size := 1
		for _, ax := range axes {
			size *= len(ax)
		}
		vals := make([]float64, size)
		c := make([]float64, len(axes))
		for k := 0; k < size; k++ {
			rem := k
			for d := len(axes) - 1; d >= 0; d-- {
				c[d] = axes[d][rem%len(axes[d])]
				rem /= len(axes[d])
			}
			vals[k] = f(c)
		}
		return vals
	}
	// Smooth log-like shapes of the same character as the tables.
	selfF := func(c []float64) float64 {
		w, l := c[0], c[1]
		return 2e-7 * l * (math.Log(2*l/(w+0.4e-6)) + 0.5)
	}
	mutF := func(c []float64) float64 {
		w1, w2, s, l := c[0], c[1], c[2], c[3]
		d := s + w1/2 + w2/2
		return 2e-7 * l * math.Log(1+l/d)
	}
	// Probes per axis: a knot, two interior points and both
	// extrapolation sides.
	probes := func(ax []float64) []float64 {
		lo, hi := ax[0], ax[len(ax)-1]
		return []float64{
			0.8 * lo, lo, math.Sqrt(ax[0] * ax[1]),
			math.Sqrt(lo * hi), hi, 1.3 * hi,
		}
	}
	check := func(name string, axes [][]float64, f func(c []float64) float64) {
		g, err := NewGrid(axes, fill(axes, f))
		if err != nil {
			t.Fatal(err)
		}
		var rec func(d int, c []float64)
		rec = func(d int, c []float64) {
			if d == len(axes) {
				want := referenceEval(axes, g.Vals, c)
				got, err := g.Eval(c...)
				if err != nil {
					t.Fatal(err)
				}
				if rel := math.Abs(got-want) / math.Abs(want); rel > 1e-12 {
					t.Errorf("%s: Eval(%v) = %g, reference %g (rel %g)", name, c, got, want, rel)
				}
				return
			}
			for _, x := range probes(axes[d]) {
				c[d] = x
				rec(d+1, c)
			}
		}
		rec(0, make([]float64, len(axes)))
	}
	check("self", selfAxes, selfF)
	check("mutual", mutAxes, mutF)
}

// Mutate-after-Set: with no lazy cache left, a Set must be visible to
// the very next Eval, exactly at the knot and smoothly off grid.
func TestGridSetVisibleToEval(t *testing.T) {
	xs := linspace(0, 4, 5)
	ys := linspace(0, 3, 4)
	vals := make([]float64, len(xs)*len(ys))
	for i := range vals {
		vals[i] = float64(i)
	}
	g, err := NewGrid([][]float64{xs, ys}, vals)
	if err != nil {
		t.Fatal(err)
	}
	before, err := g.Eval(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	g.Set(before+100, 2, 1)
	after, err := g.Eval(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(after-(before+100)) > 1e-9 {
		t.Errorf("Eval at mutated knot = %g, want %g", after, before+100)
	}
	// Off-grid neighbourhood must move too (the stale-cache failure
	// mode was returning the old surface here).
	off1, _ := g.Eval(1.9, 1.1)
	g.Set(before, 2, 1)
	off2, _ := g.Eval(1.9, 1.1)
	if off1 == off2 {
		t.Error("off-grid Eval did not react to Set")
	}
}

// Concurrent lookups on a shared grid must be race-free (run under
// -race) and return the same values as a serial pass.
func TestGridConcurrentEval(t *testing.T) {
	axes := [][]float64{
		logspace(1, 20, 6), logspace(1, 20, 6),
		logspace(1, 40, 5), logspace(50, 8000, 8),
	}
	vals := make([]float64, 6*6*5*8)
	for i := range vals {
		vals[i] = math.Sin(float64(i)/7) + 2
	}
	g, err := NewGrid(axes, vals)
	if err != nil {
		t.Fatal(err)
	}
	coords := make([][4]float64, 64)
	want := make([]float64, len(coords))
	for i := range coords {
		f := float64(i)
		coords[i] = [4]float64{1 + f/4, 20 - f/5, 1 + f/2, 100 + 100*f}
		if want[i], err = g.Eval(coords[i][0], coords[i][1], coords[i][2], coords[i][3]); err != nil {
			t.Fatal(err)
		}
	}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for gi := 0; gi < goroutines; gi++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for rep := 0; rep < 200; rep++ {
				i := (seed + rep) % len(coords)
				got, err := g.Eval(coords[i][0], coords[i][1], coords[i][2], coords[i][3])
				if err != nil {
					errs <- err
					return
				}
				if got != want[i] {
					errs <- fmt.Errorf("concurrent Eval drift: %g vs %g", got, want[i])
					return
				}
			}
		}(gi)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// Property: grid interpolation reproduces every knot exactly.
func TestQuickGridReproducesKnots(t *testing.T) {
	f := func(seed int64) bool {
		if seed < 0 {
			seed = -seed
		}
		nx := int(seed%3) + 2
		ny := int(seed/3%3) + 2
		xs := linspace(0, float64(nx), nx)
		ys := linspace(0, float64(ny), ny)
		vals := make([]float64, nx*ny)
		for i := range vals {
			vals[i] = math.Sin(float64(i) + float64(seed%17))
		}
		g, err := NewGrid([][]float64{xs, ys}, vals)
		if err != nil {
			return false
		}
		for i := 0; i < nx; i++ {
			for j := 0; j < ny; j++ {
				got, err := g.Eval(xs[i], ys[j])
				if err != nil || math.Abs(got-vals[i*ny+j]) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}
