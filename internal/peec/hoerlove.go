package peec

import (
	"math"

	"clockrlc/internal/obs"
)

// Kernel accounting, each added once per PartialMatrix or
// HoerLoveMutual call. mutual_calls counts bar pairs (self inductances
// included — a self is the kernel applied to coincident bars);
// kernel_evals counts the distinct hlF evaluations they cost, at most
// 64 per pair, so kernel_evals / (64 · mutual_calls) is the share of
// the closed form's evaluations the memo did not save.
var (
	mutualCalls = obs.GetCounter("peec.mutual_calls")
	kernelEvals = obs.GetCounter("peec.kernel_evals")
)

// hlF is the sixth-order antiderivative of 1/r appearing in the
// Hoer–Love closed-form volume integral for the mutual inductance of
// parallel rectangular conductors (C. Hoer and C. Love, J. Res. NBS
// 69C, 1965; also Ruehli 1972). Each term is guarded so that the
// degenerate corner evaluations arising in self-inductance (arguments
// exactly zero) contribute their correct limit of zero instead of
// 0·∞ = NaN.
func hlF(x, y, z float64) float64 {
	x2, y2, z2 := x*x, y*y, z*z
	r := math.Sqrt(x2 + y2 + z2)
	if r == 0 {
		return 0
	}
	// plusR computes v + r without cancellation for v < 0, where the
	// naive sum underflows to 0 when the transverse part is small:
	// v + r = (r² − v²)/(r − v) = (r² − v²)/(r − v).
	plusR := func(v, transverse2 float64) float64 {
		if v >= 0 {
			return v + r
		}
		return transverse2 / (r - v)
	}
	var s float64
	// The three log terms, cyclic in (x, y, z). The coefficient
	// vanishes exactly when both transverse coordinates vanish, which
	// is also when the log blows up, so skipping on zero coefficient
	// is the correct limit.
	if c := y2*z2/4 - y2*y2/24 - z2*z2/24; c != 0 && x != 0 {
		s += c * x * math.Log(plusR(x, y2+z2)/math.Sqrt(y2+z2))
	}
	if c := x2*z2/4 - x2*x2/24 - z2*z2/24; c != 0 && y != 0 {
		s += c * y * math.Log(plusR(y, x2+z2)/math.Sqrt(x2+z2))
	}
	if c := x2*y2/4 - x2*x2/24 - y2*y2/24; c != 0 && z != 0 {
		s += c * z * math.Log(plusR(z, x2+y2)/math.Sqrt(x2+y2))
	}
	s += r / 60 * (x2*x2 + y2*y2 + z2*z2 - 3*(x2*y2+y2*z2+z2*x2))
	// The three arctangent terms; each vanishes when any coordinate is
	// zero.
	if x != 0 && y != 0 && z != 0 {
		s -= x * y * z2 * z / 6 * math.Atan(x*y/(z*r))
		s -= x * y2 * y * z / 6 * math.Atan(x*z/(y*r))
		s -= x2 * x * y * z / 6 * math.Atan(y*z/(x*r))
	}
	return s
}

// limitPoints returns the four limit points of each dimension of the
// triple alternating second-difference of hlF that integrates over both
// bars, in the bars' canonical frame. For a dimension with source
// extent p, observer extent q and offset E (observer minimum minus
// source minimum), the points are {E−p, E, E+q−p, E+q} with signs
// sg = {+, −, −, +}.
func limitPoints(a, b Bar) [3][4]float64 {
	oa, ob := a.canonical(), b.canonical()
	ex := ob[0] - oa[0]
	ey := ob[1] - oa[1]
	ez := ob[2] - oa[2]
	lx1, lx2, wy1, wy2, tz1, tz2 := a.L, b.L, a.W, b.W, a.T, b.T
	pts := [3][4]float64{
		{ex - lx1, ex, ex + lx2 - lx1, ex + lx2},
		{ey - wy1, ey, ey + wy2 - wy1, ey + wy2},
		{ez - tz1, ez, ez + tz2 - tz1, ez + tz2},
	}
	// Snap limit points that are zero up to floating-point residue of
	// the offset arithmetic (touching faces, aligned ends) to exact
	// zero; otherwise residues of order 1e-16·scale activate the
	// guarded singular terms in hlF with garbage coefficients.
	scale := math.Max(math.Abs(lx1)+math.Abs(lx2)+math.Abs(ex),
		math.Max(math.Abs(wy1)+math.Abs(wy2)+math.Abs(ey),
			math.Abs(tz1)+math.Abs(tz2)+math.Abs(ez)))
	snap := 1e-12 * scale
	for d := range pts {
		for i, v := range pts[d] {
			if math.Abs(v) < snap {
				pts[d][i] = 0
			}
		}
	}
	return pts
}

// sg holds the signs of the four limit points of each dimension.
var sg = [4]float64{1, -1, -1, 1}

// HoerLoveMutual returns the exact partial mutual inductance (H)
// between two parallel rectangular bars with uniform current density,
// including all proximity geometry (arbitrary axial offset, lateral
// and vertical displacement, unequal cross sections and lengths).
// Orthogonal bars return exactly 0 (perpendicular currents do not
// couple). When a and b describe the same volume the result is the
// bar's partial self inductance.
//
// It is PartialMatrix's kernel applied to one pair, so an entry of
// PartialMatrix equals HoerLoveMutual of its two bars bit for bit.
func HoerLoveMutual(a, b Bar) float64 {
	mutualCalls.Inc()
	if a.Axis != b.Axis {
		return 0
	}
	bars := [2]Bar{a, b}
	pairs := [1][2]int32{{0, 1}}
	var out [1]float64
	km := memoPool.Get().(*kernelMemo)
	kernelEvals.Add(km.mutuals(bars[:], pairs[:], out[:]))
	memoPool.Put(km)
	return out[0]
}

// HoerLoveSelf returns the exact partial self inductance of a bar.
func HoerLoveSelf(b Bar) float64 {
	return HoerLoveMutual(b, b)
}
