// Package capmodel provides closed-form per-unit-length capacitance
// models for interconnect cross sections, the fast path that mirrors
// the paper's pre-characterised capacitance tables (ref. [4]). The
// numerical reference for these formulas is internal/field.
//
// The formulas are Sakurai's classical fitted expressions (T. Sakurai,
// "Closed-form expressions for interconnection delay, coupling, and
// crosstalk in VLSIs", IEEE T-ED 1993, and Sakurai & Tamaru 1983):
//
//	single line over plane:
//	  C1/ε = 1.15 (w/h) + 2.80 (t/h)^0.222
//	coupling between parallel neighbours:
//	  C2/ε = [0.03 (w/h) + 0.83 (t/h) − 0.07 (t/h)^0.222] (s/h)^−1.34
//
// with w the width, t the thickness, h the height above the return
// plane and s the edge-to-edge spacing. The fits are quoted accurate
// to ~10 % for 0.3 ≤ w/h ≤ 10 and 0.3 ≤ t/h, 0.5 ≤ s/h ≤ 10.
//
// Semantics: the fit decomposes a line's TOTAL capacitance into a
// ground component plus per-neighbour coupling components. That split
// does not coincide with the off-diagonal of the Maxwell matrix a
// field solver produces, but the total (ground + couplings) matches
// the Maxwell diagonal — which is exactly the quantity consumed by the
// paper's grounded-coupling netlist assumption. Tests in this package
// verify the totals against internal/field.
//
// Per the paper's capacitance treatment: coupling is short-range, so
// an n-trace problem decomposes into 3-trace subproblems (each trace
// with its two neighbours), and every coupling capacitor to an AC
// ground wire is treated as a perfectly grounded capacitor
// (Section VI's stated optimistic assumption).
package capmodel

import (
	"fmt"

	"math"

	"clockrlc/internal/geom"
	"clockrlc/internal/units"
)

// GroundCap returns the per-unit-length capacitance (F/m) of a single
// line of width w and thickness t at height h over a ground plane,
// in a dielectric of relative permittivity epsRel.
func GroundCap(w, t, h, epsRel float64) (float64, error) {
	return groundCap(w, t, h, epsRel, thicknessTerm(t, h))
}

// CouplingCap returns the per-unit-length coupling capacitance (F/m)
// between two parallel lines of width w and thickness t at height h
// over a ground plane, separated edge-to-edge by s.
func CouplingCap(w, t, h, s, epsRel float64) (float64, error) {
	return couplingCap(w, t, h, s, epsRel, thicknessTerm(t, h))
}

// thicknessTerm is the (t/h)^0.222 both fits share; a trace's ground
// and coupling capacitances compute it once.
func thicknessTerm(t, h float64) float64 { return math.Pow(t/h, 0.222) }

// groundCap is GroundCap given its thicknessTerm tt.
func groundCap(w, t, h, epsRel, tt float64) (float64, error) {
	if w <= 0 || t <= 0 || h <= 0 || epsRel <= 0 {
		return 0, fmt.Errorf("capmodel: GroundCap arguments must be positive (w=%g t=%g h=%g eps=%g)", w, t, h, epsRel)
	}
	eps := epsRel * units.Eps0
	return eps * (1.15*(w/h) + 2.80*tt), nil
}

// couplingCap is CouplingCap given its thicknessTerm tt.
func couplingCap(w, t, h, s, epsRel, tt float64) (float64, error) {
	if w <= 0 || t <= 0 || h <= 0 || s <= 0 || epsRel <= 0 {
		return 0, fmt.Errorf("capmodel: CouplingCap arguments must be positive (w=%g t=%g h=%g s=%g eps=%g)", w, t, h, s, epsRel)
	}
	eps := epsRel * units.Eps0
	v := 0.03*(w/h) + 0.83*(t/h) - 0.07*tt
	if v < 0 {
		// Outside the fit's validity (very thin lines); clamp at the
		// parallel-edge estimate rather than returning a negative C.
		v = t / h
	}
	return eps * v * math.Pow(s/h, -1.34), nil
}

// TraceCaps holds the decomposed capacitances of one trace within its
// 3-trace subproblem, per unit length.
type TraceCaps struct {
	// Ground is the capacitance to the reference plane below.
	Ground float64
	// Left and Right are the lateral coupling capacitances to the
	// neighbouring traces (zero at the array edges).
	Left, Right float64
}

// Total returns the grounded-coupling total: the paper treats every
// coupling capacitor to an AC ground wire as perfectly grounded, so a
// shielded signal trace's effective capacitance is the plain sum.
func (c TraceCaps) Total() float64 { return c.Ground + c.Left + c.Right }

// BlockCaps solves the paper's n-trace capacitance problem by
// reduction to 3-trace subproblems: each trace sees its ground
// capacitance plus coupling to its immediate neighbours only. h is
// the height of the trace bottom over the capacitive reference plane
// (the orthogonal layer below or an explicit ground plane).
func BlockCaps(b *geom.Block, h, epsRel float64) ([]TraceCaps, error) {
	if err := b.Validate(); err != nil {
		return nil, fmt.Errorf("capmodel: %w", err)
	}
	out := make([]TraceCaps, len(b.Traces))
	for i := range out {
		c, err := traceCaps(b, i, h, epsRel)
		if err != nil {
			return nil, err
		}
		out[i] = c
	}
	return out, nil
}

// TraceCapsOf solves trace i's 3-trace subproblem alone: element i of
// BlockCaps, bit for bit, without computing the other traces or
// allocating. A block that fails validation is the error BlockCaps
// returns for it.
func TraceCapsOf(b *geom.Block, i int, h, epsRel float64) (TraceCaps, error) {
	if err := b.Validate(); err != nil {
		return TraceCaps{}, fmt.Errorf("capmodel: %w", err)
	}
	return traceCaps(b, i, h, epsRel)
}

// traceCaps is trace i's 3-trace subproblem of a validated block: its
// ground capacitance and the couplings to its immediate neighbours,
// which share one thicknessTerm.
func traceCaps(b *geom.Block, i int, h, epsRel float64) (TraceCaps, error) {
	tr := b.Traces[i]
	tt := thicknessTerm(tr.Thickness, h)
	var c TraceCaps
	var err error
	if c.Ground, err = groundCap(tr.Width, tr.Thickness, h, epsRel, tt); err != nil {
		return TraceCaps{}, err
	}
	var left float64
	if i > 0 {
		left = tr.EdgeToEdgeSpacing(b.Traces[i-1])
		if c.Left, err = couplingCap(tr.Width, tr.Thickness, h, left, epsRel, tt); err != nil {
			return TraceCaps{}, err
		}
	}
	if i < len(b.Traces)-1 {
		s := tr.EdgeToEdgeSpacing(b.Traces[i+1])
		if i > 0 && s == left {
			// A symmetric block (every geom building block's signal
			// trace): the same spacing gives the same coupling.
			c.Right = c.Left
		} else if c.Right, err = couplingCap(tr.Width, tr.Thickness, h, s, epsRel, tt); err != nil {
			return TraceCaps{}, err
		}
	}
	return c, nil
}
