// Benchmarks regenerating every table and figure of the paper's
// evaluation (see DESIGN.md's experiment index). Each benchmark runs
// one full experiment per iteration; the table build is shared across
// benchmarks via sync.Once so the timings reflect the experiments
// themselves. BenchmarkE10 pairs quantify the point of the paper: a
// table lookup replaces a full field solve.
package clockrlc_test

import (
	"sync"
	"testing"

	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/paper"
	"clockrlc/internal/peec"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

var (
	benchOnce sync.Once
	benchExt  *core.Extractor
	benchErr  error
)

func benchExtractor(b *testing.B) *core.Extractor {
	b.Helper()
	benchOnce.Do(func() { benchExt, benchErr = paper.NewExtractor() })
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchExt
}

// BenchmarkE1Fig23 regenerates Figs. 2 and 3: the RC vs RLC transients
// of the Fig. 1 co-planar waveguide net (all three variants).
func BenchmarkE1Fig23(b *testing.B) {
	e := benchExtractor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := paper.Fig23(e)
		if err != nil {
			b.Fatal(err)
		}
		if res.CalibratedPartial.DelayRLC <= res.CalibratedPartial.DelayRC {
			b.Fatal("inductance did not slow the calibrated net")
		}
	}
}

// BenchmarkE2Fig5 regenerates Fig. 5: the loop-inductance foundations
// under a ground plane.
func BenchmarkE2Fig5(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := paper.Fig5()
		if err != nil {
			b.Fatal(err)
		}
		if res.Foundation1Err > 1e-9 || res.Foundation2Err > 1e-9 {
			b.Fatal("foundations violated")
		}
	}
}

// BenchmarkE3Table1 regenerates Table I: whole-tree extraction vs
// linear cascading for both Fig. 6 trees.
func BenchmarkE3Table1(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := paper.Table1()
		if err != nil {
			b.Fatal(err)
		}
		for _, r := range rows {
			if r.ErrPercent > 8 {
				b.Fatalf("%s: cascading error %.2f%%", r.Name, r.ErrPercent)
			}
		}
	}
}

// BenchmarkE4HTreeSkew regenerates the Section V skew study: a
// 16-leaf H-tree with a load imbalance, RC vs RLC.
func BenchmarkE4HTreeSkew(b *testing.B) {
	e := benchExtractor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := paper.HTreeSkew(e, geom.ShieldNone)
		if err != nil {
			b.Fatal(err)
		}
		if res.SkewRLC <= 0 {
			b.Fatal("degenerate skew")
		}
	}
}

// BenchmarkE5LengthSweep regenerates the super-linear length scaling
// observation of Section V.
func BenchmarkE5LengthSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := paper.LengthSweep()
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkE6TableAccuracy regenerates the Section III accuracy check:
// lookups vs direct extraction over off-grid probes.
func BenchmarkE6TableAccuracy(b *testing.B) {
	e := benchExtractor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paper.CheckTables(e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE7FreqSweep regenerates the R(f)/L(f) skin-effect sweep of
// the Fig. 1 trace.
func BenchmarkE7FreqSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := paper.FreqSweep(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE8Shields regenerates the Fig. 8 vs Fig. 9 comparison.
func BenchmarkE8Shields(b *testing.B) {
	e := benchExtractor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := paper.CompareShields(e)
		if err != nil {
			b.Fatal(err)
		}
		if res.LoopMS >= res.LoopCPW {
			b.Fatal("plane did not reduce loop L")
		}
	}
}

// BenchmarkE9ProcessVariation regenerates the statistical study
// (nominal L + statistical RC).
func BenchmarkE9ProcessVariation(b *testing.B) {
	e := benchExtractor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := paper.ProcessVariation(e, 30); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10TableLookup times one loop-inductance composition from
// the tables — the method's fast path.
func BenchmarkE10TableLookup(b *testing.B) {
	e := benchExtractor(b)
	seg := paper.Fig1Segment()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.LoopL(seg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10SegmentRLC times one full segment extraction (analytic
// R, modelled C, table-composed loop L) — the per-segment cost the
// clocktree flow pays, and the hot path guarded by the instrumentation
// layer's no-op-overhead requirement.
func BenchmarkE10SegmentRLC(b *testing.B) {
	e := benchExtractor(b)
	seg := paper.Fig1Segment()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.SegmentRLC(seg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE10DirectSolve times the equivalent full field solve the
// lookup replaces; the ratio to BenchmarkE10TableLookup is the
// speedup the paper's method buys.
func BenchmarkE10DirectSolve(b *testing.B) {
	e := benchExtractor(b)
	seg := paper.Fig1Segment()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.DirectLoopL(seg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTableBuild times a full Section III table build (the
// one-off precomputation the method amortises).
func BenchmarkTableBuild(b *testing.B) {
	cfg := table.Config{
		Name:      "bench",
		Thickness: units.Um(2),
		Rho:       units.RhoCopper,
		Shielding: geom.ShieldNone,
		Frequency: paper.Fsig,
	}
	axes := table.Axes{
		Widths:   table.LogAxis(units.Um(1), units.Um(14), 5),
		Spacings: table.LogAxis(units.Um(0.5), units.Um(22), 6),
		Lengths:  table.LogAxis(units.Um(50), units.Um(8000), 8),
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := table.Build(cfg, axes); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation: filament subdivision cost/accuracy trade of the PEEC
// engine (DESIGN.md's ablation list).
func BenchmarkAblationFilamentSubdivision(b *testing.B) {
	bar := peec.Bar{Axis: peec.AxisX, O: [3]float64{0, 0, 0}, L: units.Um(6000), W: units.Um(10), T: units.Um(2)}
	for _, n := range []struct {
		name   string
		nw, nt int
	}{
		{"2x1", 2, 1}, {"4x2", 4, 2}, {"8x4", 8, 4}, {"16x4", 16, 4},
	} {
		b.Run(n.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := peec.EffectiveRL(bar, units.RhoCopper, paper.Fsig, n.nw, n.nt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// Ablation: exact Hoer–Love closed form vs filament quadrature for one
// mutual inductance.
func BenchmarkAblationMutualEvaluation(b *testing.B) {
	p := peec.Bar{Axis: peec.AxisX, O: [3]float64{0, 0, 0}, L: units.Um(1000), W: units.Um(4), T: units.Um(2)}
	q := peec.Bar{Axis: peec.AxisX, O: [3]float64{0, units.Um(6), 0}, L: units.Um(1000), W: units.Um(4), T: units.Um(2)}
	b.Run("hoer-love", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if peec.HoerLoveMutual(p, q) <= 0 {
				b.Fatal("non-positive mutual")
			}
		}
	})
	b.Run("quadrature8x4", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if peec.MutualSubdivided(p, q, 8, 4, 8, 4) <= 0 {
				b.Fatal("non-positive mutual")
			}
		}
	})
}

// BenchmarkE11ShieldRule regenerates the "at least equal width"
// shielding experiment: crosstalk + cascading error vs shield width.
func BenchmarkE11ShieldRule(b *testing.B) {
	e := benchExtractor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := paper.ShieldRule(e, []float64{0.5, 1, 2})
		if err != nil {
			b.Fatal(err)
		}
		if res.UnshieldedNoise <= res.Rows[1].PeakNoise {
			b.Fatal("shields did not help")
		}
	}
}

// BenchmarkE12Repeater regenerates the repeater-insertion study.
func BenchmarkE12Repeater(b *testing.B) {
	e := benchExtractor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := paper.RepeaterInsertion(e)
		if err != nil {
			b.Fatal(err)
		}
		if res.RLC.N > res.RC.N {
			b.Fatal("RLC optimum exceeds RC optimum")
		}
	}
}

// BenchmarkE13BusNoise regenerates the bus switching-noise study.
func BenchmarkE13BusNoise(b *testing.B) {
	e := benchExtractor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := paper.BusNoise(e)
		if err != nil {
			b.Fatal(err)
		}
		if res.PeakStorm <= res.PeakAdjacent {
			b.Fatal("bus storm not worse than single aggressor")
		}
	}
}

// BenchmarkE14SkewVariation regenerates the nominal-L-vs-full
// variation skew study (small sample count per iteration).
func BenchmarkE14SkewVariation(b *testing.B) {
	e := benchExtractor(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := paper.SkewVariation(e, 3, int64(i)+1)
		if err != nil {
			b.Fatal(err)
		}
		if res.FullMean <= 0 {
			b.Fatal("degenerate skew")
		}
	}
}
