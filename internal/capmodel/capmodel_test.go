package capmodel

import (
	"math"
	"testing"
	"testing/quick"

	"clockrlc/internal/field"
	"clockrlc/internal/geom"
	"clockrlc/internal/units"
)

func TestGroundCapAgainstFieldSolver(t *testing.T) {
	// A line over a plane, inside Sakurai's validity range.
	w, th, h := units.Um(2), units.Um(1), units.Um(2)
	analytic, err := GroundCap(w, th, h, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	cond := []field.Rect{{Y0: -w / 2, Z0: 0, W: w, T: th}}
	plane := []field.Rect{{Y0: -units.Um(40), Z0: -h - units.Um(1), W: units.Um(80), T: units.Um(1)}}
	win := field.Window{
		Y0: -units.Um(30), Y1: units.Um(30),
		Z0: -h - units.Um(2), Z1: units.Um(20),
		NY: 241, NZ: 121,
	}
	c, err := field.CapacitanceMatrix(cond, plane, 1.0, win, field.Options{})
	if err != nil {
		t.Fatal(err)
	}
	numeric := c.At(0, 0)
	if rel := math.Abs(analytic-numeric) / numeric; rel > 0.15 {
		t.Errorf("GroundCap %g vs field solver %g (rel %g)", analytic, numeric, rel)
	}
}

func TestCouplingCapAgainstFieldSolver(t *testing.T) {
	w, th, h, s := units.Um(2), units.Um(1), units.Um(2), units.Um(2)
	analytic, err := CouplingCap(w, th, h, s, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	conds := []field.Rect{
		{Y0: 0, Z0: 0, W: w, T: th},
		{Y0: w + s, Z0: 0, W: w, T: th},
	}
	plane := []field.Rect{{Y0: -units.Um(40), Z0: -h - units.Um(1), W: units.Um(80), T: units.Um(1)}}
	win := field.Window{
		Y0: -units.Um(25), Y1: units.Um(31),
		Z0: -h - units.Um(2), Z1: units.Um(20),
		NY: 225, NZ: 121,
	}
	c, err := field.CapacitanceMatrix(conds, plane, 1.0, win, field.Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Sakurai's fit decomposes a line's TOTAL capacitance into a
	// ground part and per-neighbour coupling parts; that split does not
	// coincide with the Maxwell matrix split, but the total — which is
	// what the paper's grounded-coupling netlist assumption consumes —
	// must agree with the Maxwell diagonal.
	g, err := GroundCap(w, th, h, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	total := g + analytic
	numeric := c.At(0, 0)
	if rel := math.Abs(total-numeric) / numeric; rel > 0.10 {
		t.Errorf("total C (ground %g + coupling %g = %g) vs field solver %g (rel %g)",
			g, analytic, total, numeric, rel)
	}
	// And the coupling component itself must at least be a fraction of
	// the Maxwell off-diagonal, never exceed the total.
	if analytic <= 0 || analytic >= numeric {
		t.Errorf("coupling %g outside (0, total %g)", analytic, numeric)
	}
}

func TestGroundCapMonotonicity(t *testing.T) {
	f := func(wq, hq uint8) bool {
		w := units.Um(float64(wq%40)/4 + 1)
		h := units.Um(float64(hq%20)/4 + 1)
		c1, err1 := GroundCap(w, units.Um(1), h, units.EpsSiO2)
		c2, err2 := GroundCap(w+units.Um(0.5), units.Um(1), h, units.EpsSiO2)
		c3, err3 := GroundCap(w, units.Um(1), h+units.Um(0.5), units.EpsSiO2)
		if err1 != nil || err2 != nil || err3 != nil {
			return false
		}
		// Wider ⇒ more C; farther from plane ⇒ less C.
		return c2 > c1 && c3 < c1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestCouplingCapDecaysWithSpacing(t *testing.T) {
	prev := math.Inf(1)
	for _, s := range []float64{1, 2, 4, 8} {
		c, err := CouplingCap(units.Um(2), units.Um(1), units.Um(2), units.Um(s), units.EpsSiO2)
		if err != nil {
			t.Fatal(err)
		}
		if c >= prev {
			t.Fatalf("coupling C must decay with spacing: C(%g µm) = %g >= %g", s, c, prev)
		}
		prev = c
	}
}

func TestArgumentValidation(t *testing.T) {
	if _, err := GroundCap(0, 1, 1, 1); err == nil {
		t.Error("GroundCap accepted zero width")
	}
	if _, err := CouplingCap(1, 1, 1, 0, 1); err == nil {
		t.Error("CouplingCap accepted zero spacing")
	}
	if _, err := GroundCap(1, 1, 1, -3.9); err == nil {
		t.Error("GroundCap accepted negative permittivity")
	}
}

func TestCouplingCapNeverNegative(t *testing.T) {
	// Very thin lines push the fit coefficient negative; the clamp
	// must keep the physical sign.
	c, err := CouplingCap(units.Um(10), units.Um(0.05), units.Um(10), units.Um(1), units.EpsSiO2)
	if err != nil {
		t.Fatal(err)
	}
	if c <= 0 {
		t.Errorf("coupling C = %g, want > 0", c)
	}
}

func TestBlockCapsFig1(t *testing.T) {
	b := geom.CoplanarWaveguide(units.Um(6000), units.Um(10), units.Um(5),
		units.Um(1), units.Um(2), 0, units.RhoCopper)
	caps, err := BlockCaps(b, units.Um(2), units.EpsSiO2)
	if err != nil {
		t.Fatal(err)
	}
	if len(caps) != 3 {
		t.Fatalf("got %d trace caps", len(caps))
	}
	sig := caps[1]
	// The centre trace has neighbours on both sides; edges have one.
	if sig.Left <= 0 || sig.Right <= 0 {
		t.Errorf("signal couplings = %+v, want both positive", sig)
	}
	if caps[0].Left != 0 || caps[2].Right != 0 {
		t.Errorf("edge traces must have zero outer coupling: %+v %+v", caps[0], caps[2])
	}
	// Symmetry: the two equal gaps give equal couplings.
	if math.Abs(sig.Left-sig.Right) > 1e-18 {
		t.Errorf("asymmetric couplings: %g vs %g", sig.Left, sig.Right)
	}
	// Total for the Fig. 1 signal: sanity band. 6 mm of 10 µm-wide
	// trace 2 µm over a plane is on the order of a picofarad.
	total := sig.Total() * units.Um(6000)
	if total < 0.3e-12 || total > 3e-12 {
		t.Errorf("Fig.1 signal total C = %g F, want O(1 pF)", total)
	}
	if sig.Total() <= sig.Ground {
		t.Error("Total must include couplings")
	}
}

func TestBlockCapsValidation(t *testing.T) {
	b := geom.CoplanarWaveguide(units.Um(100), units.Um(2), units.Um(2), units.Um(1), units.Um(1), 0, units.RhoCopper)
	if _, err := BlockCaps(b, 0, units.EpsSiO2); err == nil {
		t.Error("BlockCaps accepted zero height")
	}
	if _, err := BlockCaps(&geom.Block{}, units.Um(1), units.EpsSiO2); err == nil {
		t.Error("BlockCaps accepted invalid block")
	}
}

// TraceCapsOf is, bit for bit, GroundCap and a CouplingCap per
// neighbour called directly on the trace's own dimensions, over a sweep
// that covers both sides of the thin-line clamp; an invalid height or
// permittivity is GroundCap's own error.
func TestTraceCapsOfMatchesDirectCalls(t *testing.T) {
	clamped, unclamped := 0, 0
	for _, w := range []float64{0.1, 0.5, 2, 10} {
		for _, th := range []float64{0.02, 0.05, 1, 3} {
			for _, h := range []float64{0.5, 2, 10} {
				for _, s := range []float64{0.3, 1.5, 8} {
					if v := 0.03*(w/h) + 0.83*(th/h) - 0.07*math.Pow(th/h, 0.222); v < 0 {
						clamped++
					} else {
						unclamped++
					}
					blocks := []*geom.Block{
						geom.CoplanarWaveguide(units.Um(500), units.Um(w), units.Um(2*w+1), units.Um(s), units.Um(th), 0, units.RhoCopper),
						geom.TraceArray(4, units.Um(500), units.Um(w), units.Um(s), units.Um(th), 0, units.RhoCopper),
					}
					for _, b := range blocks {
						for i, tr := range b.Traces {
							got, err := TraceCapsOf(b, i, units.Um(h), units.EpsSiO2)
							if err != nil {
								t.Fatal(err)
							}
							var want TraceCaps
							if want.Ground, err = GroundCap(tr.Width, tr.Thickness, units.Um(h), units.EpsSiO2); err != nil {
								t.Fatal(err)
							}
							if i > 0 {
								want.Left, _ = CouplingCap(tr.Width, tr.Thickness, units.Um(h), tr.EdgeToEdgeSpacing(b.Traces[i-1]), units.EpsSiO2)
							}
							if i < len(b.Traces)-1 {
								want.Right, _ = CouplingCap(tr.Width, tr.Thickness, units.Um(h), tr.EdgeToEdgeSpacing(b.Traces[i+1]), units.EpsSiO2)
							}
							if math.Float64bits(got.Ground) != math.Float64bits(want.Ground) ||
								math.Float64bits(got.Left) != math.Float64bits(want.Left) ||
								math.Float64bits(got.Right) != math.Float64bits(want.Right) {
								t.Fatalf("w=%g t=%g h=%g s=%g trace %d: TraceCapsOf %+v, direct calls %+v", w, th, h, s, i, got, want)
							}
						}
					}
				}
			}
		}
	}
	if clamped == 0 || unclamped == 0 {
		t.Fatalf("sweep has %d clamped and %d unclamped cross-sections; want both", clamped, unclamped)
	}
	b := geom.CoplanarWaveguide(units.Um(500), units.Um(2), units.Um(2), units.Um(1), units.Um(1), 0, units.RhoCopper)
	for _, bad := range []struct{ h, eps float64 }{{0, units.EpsSiO2}, {units.Um(2), -1}} {
		_, got := TraceCapsOf(b, 1, bad.h, bad.eps)
		_, want := GroundCap(b.Traces[1].Width, b.Traces[1].Thickness, bad.h, bad.eps)
		if got == nil || want == nil || got.Error() != want.Error() {
			t.Errorf("h=%g eps=%g: TraceCapsOf error %v, GroundCap error %v", bad.h, bad.eps, got, want)
		}
	}
}

// The signal trace of every geom building block sits midway between
// its grounds, so its two couplings are one value, bit for bit what a
// direct CouplingCap call gives for either spacing; a block with
// unequal spacings still computes each side.
func TestSymmetricBlockSharesCoupling(t *testing.T) {
	var st geom.BlockStorage
	h := units.Um(2)
	coupling := func(b geom.Block, i, j int) float64 {
		tr := b.Traces[i]
		c, err := CouplingCap(tr.Width, tr.Thickness, h, tr.EdgeToEdgeSpacing(b.Traces[j]), units.EpsSiO2)
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	bits := math.Float64bits
	for _, g := range []struct{ w, gw, s float64 }{{1, 1, 0.8}, {10, 5, 1}, {2.3, 7.1, 3.7}, {0.6, 12, 0.05}} {
		w, gw, s, th := units.Um(g.w), units.Um(g.gw), units.Um(g.s), units.Um(1)
		for name, b := range map[string]geom.Block{
			"coplanar":   st.Coplanar(units.Um(500), w, gw, s, th, 0, units.RhoCopper),
			"microstrip": st.Microstrip(units.Um(500), w, gw, s, th, 0, units.RhoCopper, units.Um(2), units.Um(1)),
			"stripline":  st.Stripline(units.Um(500), w, gw, s, th, 0, units.RhoCopper, units.Um(2), units.Um(1)),
		} {
			got, err := TraceCapsOf(&b, 1, h, units.EpsSiO2)
			if err != nil {
				t.Fatal(err)
			}
			left, right := coupling(b, 1, 0), coupling(b, 1, 2)
			if bits(got.Left) != bits(got.Right) || bits(got.Left) != bits(left) || bits(got.Right) != bits(right) {
				t.Errorf("%s %+v: Left %v, Right %v; direct calls %v, %v", name, g, got.Left, got.Right, left, right)
			}
		}
	}

	b := geom.Block{
		Traces: []geom.Trace{
			{Y: -units.Um(4), Length: units.Um(500), Width: units.Um(2), Thickness: units.Um(1)},
			{Y: 0, Length: units.Um(500), Width: units.Um(2), Thickness: units.Um(1)},
			{Y: units.Um(7), Length: units.Um(500), Width: units.Um(2), Thickness: units.Um(1)},
		},
		IsGround: []bool{true, false, true},
		Rho:      units.RhoCopper,
	}
	got, err := TraceCapsOf(&b, 1, h, units.EpsSiO2)
	if err != nil {
		t.Fatal(err)
	}
	left, right := coupling(b, 1, 0), coupling(b, 1, 2)
	if bits(got.Left) != bits(left) || bits(got.Right) != bits(right) || got.Left == got.Right {
		t.Errorf("asymmetric block: Left %v, Right %v; direct calls %v, %v", got.Left, got.Right, left, right)
	}
}
