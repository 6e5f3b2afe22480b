// Package peec implements the partial-inductance engine that stands in
// for the paper's Raphael RI3 / FastHenry extractor.
//
// Conductors are rectangular bars carrying uniform axial current. The
// engine provides three evaluation paths that cross-validate each
// other:
//
//   - exact closed-form partial self and mutual inductance of parallel
//     rectangular bars (Hoer–Love volume integrals, the same formulas
//     PEEC extractors use internally);
//   - filament formulas (exact for zero cross-section) plus
//     geometric-mean-distance approximations (Grover);
//   - filament-grid quadrature (subdivide the cross sections, average
//     filament mutuals), which also underpins the frequency-dependent
//     R(f)/L(f) skin-effect solver in freq.go.
//
// Everything is magnetoquasistatic and SI.
package peec

import (
	"fmt"

	"clockrlc/internal/geom"
)

// Axis identifies the current direction of a bar. Traces in adjacent
// layers are orthogonal (paper Sec. II), so only two axes occur; the
// mutual inductance between orthogonal bars is identically zero.
type Axis int

const (
	// AxisX marks a bar whose current flows along x.
	AxisX Axis = iota
	// AxisY marks a bar whose current flows along y.
	AxisY
)

// String implements fmt.Stringer.
func (a Axis) String() string {
	switch a {
	case AxisX:
		return "x"
	case AxisY:
		return "y"
	default:
		return fmt.Sprintf("Axis(%d)", int(a))
	}
}

// Bar is a rectangular conductor. O is the minimum corner in global
// coordinates; L extends along Axis, W across it in the routing plane,
// and T along z.
type Bar struct {
	Axis    Axis
	O       [3]float64
	L, W, T float64
}

// Validate reports whether the bar has positive, finite dimensions, a
// finite corner and a known axis, naming the offending field.
func (b Bar) Validate() error {
	for _, err := range []error{
		geom.CheckPositive("L", b.L), geom.CheckPositive("W", b.W), geom.CheckPositive("T", b.T),
		geom.CheckFinite("O[0]", b.O[0]), geom.CheckFinite("O[1]", b.O[1]), geom.CheckFinite("O[2]", b.O[2]),
	} {
		if err != nil {
			return fmt.Errorf("peec: bar %w", err)
		}
	}
	if b.Axis != AxisX && b.Axis != AxisY {
		return fmt.Errorf("peec: bad axis %d", b.Axis)
	}
	return nil
}

// canonical returns the bar's minimum corner with the length dimension
// mapped onto the first coordinate: for AxisY bars, x and y swap.
// All pairwise formulas operate in this frame; swapping both bars of a
// parallel pair is a relabeling of coordinates and leaves mutual
// inductance unchanged.
func (b Bar) canonical() (o [3]float64) {
	if b.Axis == AxisX {
		return b.O
	}
	return [3]float64{b.O[1], b.O[0], b.O[2]}
}

// CrossSection returns W·T.
func (b Bar) CrossSection() float64 { return b.W * b.T }

// BarFromTrace converts a geom.Trace (x-directed, centre-based
// coordinates) into a peec.Bar (corner-based).
func BarFromTrace(t geom.Trace) Bar {
	return Bar{
		Axis: AxisX,
		O:    [3]float64{t.X0, t.Y - t.Width/2, t.Z - t.Thickness/2},
		L:    t.Length,
		W:    t.Width,
		T:    t.Thickness,
	}
}

// PlaneStrips discretizes a ground plane into n x-directed strips of
// equal width spanning the plane, each of the given length starting at
// x0. The strip resolution controls how well the return-current
// crowding under the signal trace is captured; tests show n ≈ 10–20 is
// sufficient for loop inductance to converge to ~1 %.
func PlaneStrips(p geom.GroundPlane, x0, length float64, n int) []Bar {
	if n < 1 {
		panic("peec: PlaneStrips needs n >= 1")
	}
	w := p.Width / float64(n)
	out := make([]Bar, n)
	for i := range out {
		out[i] = Bar{
			Axis: AxisX,
			O:    [3]float64{x0, -p.Width/2 + float64(i)*w, p.Z - p.Thickness/2},
			L:    length,
			W:    w,
			T:    p.Thickness,
		}
	}
	return out
}
