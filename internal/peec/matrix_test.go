package peec

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"clockrlc/internal/geom"
	"clockrlc/internal/units"
)

// tableBars returns the bars of one of the table builder's loop
// solves in the default technology (2 µm metal over a 1 µm plane 2 µm
// below and, with planes = 2, another as far above): the signal trace
// of width w1 as 4×2 filaments, the open trace of width w2 at edge
// spacing sp when w2 > 0, and each plane as 12 strips.
func tableBars(planes int, w1, w2, sp, l float64) []Bar {
	th, gap, pt := units.Um(2), units.Um(2), units.Um(1)
	bars := Filaments(BarFromTrace(geom.Trace{Z: th / 2, Length: l, Width: w1, Thickness: th}), 4, 2)
	footprint := w1
	if w2 > 0 {
		bars = append(bars, BarFromTrace(geom.Trace{Y: w1/2 + sp + w2/2, Z: th / 2, Length: l, Width: w2, Thickness: th}))
		footprint = w1 + w2 + sp
	}
	for _, z := range []float64{-gap - pt/2, th + gap + pt/2}[:planes] {
		p := geom.GroundPlane{Z: z, Thickness: pt, Width: 3*footprint + 20*gap, Rho: units.RhoCopper}
		bars = append(bars, PlaneStrips(p, 0, l, 12)...)
	}
	return bars
}

// sectioned cuts each bar into n collinear sections, as the sectioned
// PEEC netlists do.
func sectioned(n int, wires ...Bar) []Bar {
	var bars []Bar
	for _, w := range wires {
		l := w.L / float64(n)
		for k := 0; k < n; k++ {
			b := w
			b.O[0] = w.O[0] + float64(k)*l
			b.L = l
			bars = append(bars, b)
		}
	}
	return bars
}

// directMutual is the closed form without the memo: 64 hlF calls over
// the pair's limit points, summed in the memo's order.
func directMutual(a, b Bar) float64 {
	if a.Axis != b.Axis {
		return 0
	}
	pts := limitPoints(a, b)
	var s float64
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			p := sg[i] * sg[j]
			for k := 0; k < 4; k++ {
				s += p * sg[k] * hlF(pts[0][i], pts[1][j], pts[2][k])
			}
		}
	}
	den := 4 * math.Pi * a.W * a.T * b.W * b.T
	return units.Mu0 / den * s
}

// checkMatrixBits checks every entry (i, j) and (j, i), i ≤ j, of the
// bars' PartialMatrix against HoerLoveMutual(bars[i], bars[j]) and
// that against directMutual, bit for bit; a mixed-axis pair must be
// exactly +0.
func checkMatrixBits(t *testing.T, name string, bars []Bar) {
	t.Helper()
	lp := PartialMatrix(bars)
	for i := range bars {
		for j := i; j < len(bars); j++ {
			want := HoerLoveMutual(bars[i], bars[j])
			if d := directMutual(bars[i], bars[j]); math.Float64bits(d) != math.Float64bits(want) {
				t.Fatalf("%s: HoerLoveMutual(%d, %d) = %v, unmemoized %v", name, i, j, want, d)
			}
			if bars[i].Axis != bars[j].Axis && math.Float64bits(want) != 0 {
				t.Fatalf("%s: mixed-axis pair (%d, %d) = %v, want +0", name, i, j, want)
			}
			for _, got := range []float64{lp.At(i, j), lp.At(j, i)} {
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("%s: entry (%d, %d) = %v, HoerLoveMutual %v", name, i, j, got, want)
				}
			}
		}
	}
}

func TestPartialMatrixMatchesHoerLoveMutualBits(t *testing.T) {
	um := units.Um
	ybar := func(x, y, z, l, w, th float64) Bar {
		return Bar{Axis: AxisY, O: [3]float64{x, y, z}, L: l, W: w, T: th}
	}
	a := xbar(0, 0, 0, um(700), um(3), um(2))
	b := xbar(um(100), um(9), um(4), um(400), um(5), um(1))
	sets := map[string][]Bar{
		"microstrip one-trace":  tableBars(1, um(2), 0, 0, um(1000)),
		"stripline one-trace":   tableBars(2, um(20), 0, 0, um(8000)),
		"microstrip two-trace":  tableBars(1, um(2), um(2), um(2), um(1000)),
		"microstrip narrow":     tableBars(1, um(0.6), um(20), um(0.6), um(50)),
		"stripline two-trace":   tableBars(2, um(1.2), um(6), um(40), um(500)),
		"EffectiveRL filaments": Filaments(fig1SignalBar(), 4, 2),
		"collinear sections": sectioned(8,
			xbar(0, 0, 0, um(6000), um(2), um(2)),
			xbar(0, um(3), 0, um(6000), um(10), um(2)),
			xbar(0, um(14), 0, um(6000), um(2), um(2))),
		"coincident": {a, a, b, a, b},
		"touching faces": {
			a,
			xbar(0, um(3), 0, um(700), um(3), um(2)), // side by side
			xbar(0, 0, um(2), um(700), um(3), um(2)), // stacked
			xbar(um(700), 0, 0, um(300), um(3), um(2)), // end to end
		},
		"unequal lengths and offsets": {
			a, b,
			xbar(um(-50), um(-7), 0, um(250), um(2), um(2)),
			xbar(um(333), um(1.5), um(-3), um(1200), um(0.6), um(0.4)),
		},
		"axis y": {
			ybar(0, 0, 0, um(500), um(2), um(1)),
			ybar(um(8), um(50), um(3), um(400), um(4), um(1)),
			ybar(um(2), 0, 0, um(500), um(2), um(1)),
		},
		"mixed axes": {
			a,
			ybar(0, 0, um(2), um(500), um(2), um(1)),
			b,
			ybar(um(10), um(-20), 0, um(300), um(1), um(1)),
		},
	}
	for name, bars := range sets {
		checkMatrixBits(t, name, bars)
	}
}

// A loop-solve block shares its limit points across the whole matrix;
// a set of unrelated bars does not, and falls back to one grid per
// pair rather than a grid larger than the kernel calls it replaces.
func TestKernelMemoBoundsItsGrid(t *testing.T) {
	pairsOf := func(bars []Bar) [][2]int32 {
		var ps [][2]int32
		for i := range bars {
			for j := i; j < len(bars); j++ {
				ps = append(ps, [2]int32{int32(i), int32(j)})
			}
		}
		return ps
	}
	var km kernelMemo
	block := tableBars(1, units.Um(2), units.Um(2), units.Um(2), units.Um(1000))
	ps := pairsOf(block)
	if !km.index(block, ps) {
		t.Fatal("the table's two-trace block fell back to per-pair grids")
	}
	if len(km.grid) > 64*len(ps) {
		t.Fatalf("grid of %d points for %d pairs", len(km.grid), len(ps))
	}
	out := make([]float64, len(ps))
	if evals := km.mutuals(block, ps, out); evals*3 > int64(64*len(ps)) {
		t.Errorf("%d hlF evaluations for %d pairs: the memo saved less than two thirds", evals, len(ps))
	}

	rng := rand.New(rand.NewSource(1))
	irregular := make([]Bar, 12)
	for i := range irregular {
		irregular[i] = xbar(units.Um(rng.Float64()*100), units.Um(rng.Float64()*100), units.Um(rng.Float64()*10),
			units.Um(100+rng.Float64()*900), units.Um(1+rng.Float64()*5), units.Um(0.5+rng.Float64()*2))
	}
	if km.index(irregular, pairsOf(irregular)) {
		t.Fatal("12 unrelated bars share one grid")
	}
	checkMatrixBits(t, "irregular", irregular)
}

// Build workers share memoPool: concurrent fills of different bar sets
// must give the serial matrices bit for bit.
func TestPartialMatrixConcurrentFillsMatchSerial(t *testing.T) {
	um := units.Um
	sets := [][]Bar{
		tableBars(1, um(2), um(2), um(2), um(1000)),
		tableBars(2, um(0.6), 0, 0, um(50)),
		Filaments(fig1SignalBar(), 4, 2),
		{xbar(0, 0, 0, um(700), um(3), um(2)), xbar(um(100), um(9), um(4), um(400), um(5), um(1))},
	}
	want := make([][]float64, len(sets))
	for k, bars := range sets {
		want[k] = PartialMatrix(bars).Data
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < 20; r++ {
				k := (g + r) % len(sets)
				got := PartialMatrix(sets[k]).Data
				for i := range got {
					if math.Float64bits(got[i]) != math.Float64bits(want[k][i]) {
						t.Errorf("set %d entry %d: %v concurrently, %v serially", k, i, got[i], want[k][i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// fuzzBars decodes up to six bars from data, seven bytes a bar: the
// axis, the corner (x in 2 µm steps, y and z in 0.25 µm steps, signed)
// and the length, width and thickness (2 µm, 0.25 µm and 0.25 µm
// steps). The coarse grid makes coincident, touching and aligned bars
// common.
func fuzzBars(data []byte) []Bar {
	var bars []Bar
	for len(data) >= 7 && len(bars) < 6 {
		d := data[:7]
		data = data[7:]
		off := func(c byte, step float64) float64 { return units.Um(float64(int8(c)) * step) }
		dim := func(c byte, step float64) float64 { return units.Um((float64(c) + 1) * step) }
		bars = append(bars, Bar{
			Axis: Axis(d[0] & 1),
			O:    [3]float64{off(d[1], 2), off(d[2], 0.25), off(d[3], 0.25)},
			L:    dim(d[4], 2),
			W:    dim(d[5], 0.25),
			T:    dim(d[6], 0.25),
		})
	}
	return bars
}

func FuzzPartialMatrixBits(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 99, 7, 7, 0, 0, 8, 0, 99, 7, 7})
	f.Add([]byte{0, 0, 0, 0, 49, 3, 3, 0, 0, 0, 0, 49, 3, 3, 1, 0, 0, 8, 49, 3, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkMatrixBits(t, "fuzz", fuzzBars(data))
	})
}

// BenchmarkPartialMatrix times the matrix of one mutual entry of a
// microstrip table build: 2 µm traces 2 µm apart, 1000 µm long, the
// signal as 4×2 filaments over 12 plane strips (21 bars).
func BenchmarkPartialMatrix(b *testing.B) {
	bars := tableBars(1, units.Um(2), units.Um(2), units.Um(2), units.Um(1000))
	evals0 := kernelEvals.Value()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		PartialMatrix(bars)
	}
	b.ReportMetric(float64(kernelEvals.Value()-evals0)/float64(b.N), "hlF/op")
}
