package sim

// The reverse Cuthill–McKee numbering, the band it gives, the one-pass
// step product, and the time-grid gate.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"clockrlc/internal/linalg"
	"clockrlc/internal/netlist"
	"clockrlc/internal/obs"
)

// namedNetlist is one of the netlists the dense-oracle tests run.
type namedNetlist struct {
	name string
	nl   *netlist.Netlist
}

func oracleNetlists(t *testing.T) []namedNetlist {
	nls := []namedNetlist{
		{"stage-rc", stageNetlist(t, false, 6)},
		{"stage-rlc", stageNetlist(t, true, 6)},
		{"coupled", coupledNetlist(t)},
		{"multi-source", multiSourceNetlist(t)},
	}
	for seed := int64(1); seed <= 5; seed++ {
		nl, _ := randomLadders(t, seed)
		nls = append(nls, namedNetlist{fmt.Sprintf("random-%d", seed), nl})
	}
	return nls
}

// The numbering is a permutation of every unknown; every nonzero of G
// and C lies within the half-bandwidth Compile reports, which some
// nonzero attains; and the pattern holds every nonzero, stamped to the
// dense assembly's value bit for bit.
func TestAssembleOrderIsPermutation(t *testing.T) {
	for _, c := range oracleNetlists(t) {
		t.Run(c.name, func(t *testing.T) {
			m, err := Compile(c.nl)
			if err != nil {
				t.Fatal(err)
			}
			if len(m.pos) != m.dim {
				t.Fatalf("%d rows for %d unknowns", len(m.pos), m.dim)
			}
			seen := make([]bool, m.dim)
			for _, r := range m.pos {
				if r < 0 || r >= m.dim || seen[r] {
					t.Fatalf("row %d: not a permutation of 0..%d", r, m.dim-1)
				}
				seen[r] = true
			}
			if err := m.load(); err != nil {
				t.Fatal(err)
			}
			g, cm := denseAssemble(m)
			pg, pc := linalg.NewMatrix(m.dim, m.dim), linalg.NewMatrix(m.dim, m.dim)
			for i := 0; i < m.dim; i++ {
				for k := m.p.rowPtr[i]; k < m.p.rowPtr[i+1]; k++ {
					pg.Set(i, m.p.col[k], m.p.g[k])
					pc.Set(i, m.p.col[k], m.p.c[k])
				}
			}
			sameBits(t, "G", pg.Data, g.Data)
			sameBits(t, "C", pc.Data, cm.Data)
			widest := 0
			for i := 0; i < m.dim; i++ {
				for j := 0; j < m.dim; j++ {
					if g.At(i, j) == 0 && cm.At(i, j) == 0 {
						continue
					}
					if d := max(i-j, j-i); d > m.bw {
						t.Fatalf("nonzero (%d,%d) lies outside the half-bandwidth %d", i, j, m.bw)
					} else {
						widest = max(widest, d)
					}
				}
			}
			if widest != m.bw {
				t.Fatalf("half-bandwidth %d, but the widest nonzero is %d off the diagonal", m.bw, widest)
			}
		})
	}
}

// The clock-tree stages factor inside a narrow band with little fill;
// the nodes-then-currents numbering gave the RLC stage a half-bandwidth
// of 110 and 1,780 factor entries, and the RC stage 258.
func TestStageFactorsInNarrowBand(t *testing.T) {
	for _, c := range []struct {
		name      string
		withL     bool
		bw, luNNZ int
	}{{"rc", false, 3, 130}, {"rlc", true, 3, 400}} {
		mem := &obs.MemorySink{}
		obs.Default().AddSink(mem)
		_, err := CrossingsCtx(context.Background(), stageNetlist(t, c.withL, 6), stageStep, 4000*stageStep,
			stageSinks, 0.5, true)
		obs.Default().RemoveSink(mem)
		if err != nil {
			t.Fatal(err)
		}
		var attrs map[string]any
		for _, ev := range mem.Events() {
			if ev.Type == obs.EventSpanEnd && ev.Name == "sim.transient" {
				attrs = ev.Attrs
			}
		}
		if attrs == nil {
			t.Fatalf("%s: no sim.transient span", c.name)
		}
		bw, _ := attrs["bw"].(int)
		lu, _ := attrs["lu_nnz"].(int)
		if bw < 1 || bw > c.bw {
			t.Errorf("%s: bw = %v, want 1..%d", c.name, attrs["bw"], c.bw)
		}
		if lu < 1 || lu > c.luNNZ {
			t.Errorf("%s: lu_nnz = %v, want at most %d", c.name, attrs["lu_nnz"], c.luNNZ)
		}
	}
}

// sparseBanded returns a random n×n matrix with half-bandwidth bw and
// about density of its band populated, with signed entries.
func sparseBanded(rng *rand.Rand, n, bw int, density float64) *linalg.Matrix {
	a := linalg.NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := max(0, i-bw); j <= min(n-1, i+bw); j++ {
			if rng.Float64() < density {
				a.Set(i, j, rng.NormFloat64())
			}
		}
	}
	return a
}

// pencilOf compresses dense G and C of half-bandwidth bw onto the
// merged pattern of their nonzeros.
func pencilOf(g, c *linalg.Matrix, bw int) *pencil {
	n := g.Rows
	p := &pencil{rowPtr: make([]int, 1, n+1)}
	for i := 0; i < n; i++ {
		for j := max(0, i-bw); j <= min(n-1, i+bw); j++ {
			if gv, cv := g.At(i, j), c.At(i, j); gv != 0 || cv != 0 {
				p.col = append(p.col, j)
				p.g = append(p.g, gv)
				p.c = append(p.c, cv)
			}
		}
		p.rowPtr = append(p.rowPtr, len(p.col))
	}
	return p
}

// The one-pass step product is bit for bit the dense products and sums
// it replaces: C·x and G·x by Matrix.MulVec, then b0 + ((b1 + s·Cx) − Gx).
func TestStepRHSMatchesDenseBits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(60)
		bw := rng.Intn(n)
		g, c := sparseBanded(rng, n, bw, 0.3), sparseBanded(rng, n, bw, 0.3)
		p := pencilOf(g, c, bw)
		nnz := 0
		for i := range g.Data {
			if g.Data[i] != 0 {
				nnz++
			}
			if c.Data[i] != 0 {
				nnz++
			}
		}
		if got := p.nonzeros(); got != nnz {
			t.Fatalf("trial %d: nnz = %d, G and C hold %d nonzeros", trial, got, nnz)
		}
		x := randomVec(rng, n)
		x[rng.Intn(n)] = 0
		b0, b1 := make([]float64, n), make([]float64, n)
		for _, i := range rng.Perm(n)[:1+rng.Intn(3)] {
			b0[i], b1[i] = rng.NormFloat64(), rng.NormFloat64()
		}
		s := 2 / (1e-13 * (1 + rng.Float64()))
		want := make([]float64, n)
		cx, gx := c.MulVec(x), g.MulVec(x)
		for i := range want {
			want[i] = b0[i] + (b1[i] + s*cx[i] - gx[i])
		}
		got := make([]float64, n)
		if !p.stepRHS(got, x, b0, b1, s) {
			t.Fatalf("trial %d: a finite right-hand side reported non-finite", trial)
		}
		sameBits(t, fmt.Sprintf("trial %d rhs", trial), got, want)

		b1[rng.Intn(n)] = math.Inf(1)
		if p.stepRHS(got, x, b0, b1, s) {
			t.Fatalf("trial %d: an infinite source value passed as finite", trial)
		}
	}
}

func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

// A non-finite or overflowing time grid is a "bad time grid" error on
// both entry points, never a panic or a run of no steps.
func TestBadTimeGridIsRefused(t *testing.T) {
	nl := stageNetlist(t, true, 6)
	inf, nan := math.Inf(1), math.NaN()
	for _, g := range []struct{ h, tstop float64 }{
		{nan, 1e-9}, {stageStep, nan}, {stageStep, inf}, {inf, inf}, {1e-21, 1},
	} {
		name := fmt.Sprintf("h=%g,tstop=%g", g.h, g.tstop)
		if _, err := TransientCtx(context.Background(), nl, g.h, g.tstop, stageSinks); err == nil ||
			!strings.Contains(err.Error(), "bad time grid") {
			t.Errorf("TransientCtx %s: want a bad time grid error, got %v", name, err)
		}
		if _, err := CrossingsCtx(context.Background(), nl, g.h, g.tstop, stageSinks, 0.5, true); err == nil ||
			!strings.Contains(err.Error(), "bad time grid") {
			t.Errorf("CrossingsCtx %s: want a bad time grid error, got %v", name, err)
		}
	}
}

// A valid grid too long to record up front still starts, and stops at
// a cancel, instead of sizing its waveforms for every step.
func TestTransientVastGridCancels(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := TransientCtx(ctx, stageNetlist(t, true, 6), 1e-15, 1, stageSinks)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}
