package peec

import (
	"fmt"
	"math"
	"time"

	"clockrlc/internal/geom"
	"clockrlc/internal/linalg"
	"clockrlc/internal/obs"
)

// Skin-effect solve accounting (one EffectiveRL per self-table entry).
var (
	effectiveRLCalls = obs.GetCounter("peec.effective_rl_calls")
	effectiveRLNs    = obs.GetCounter("peec.effective_rl_ns")
)

// RL holds a frequency-dependent effective series resistance and
// inductance of a conductor (or conductor system).
type RL struct {
	R float64 // Ω
	L float64 // H
}

// EffectiveRL computes the effective series resistance and partial
// self inductance of a single bar at frequency f, capturing the skin
// and (self-)proximity effect by subdividing the cross section into
// nw×nt volume filaments that share both end nodes.
//
// All filaments are in parallel: with the filament impedance matrix
// Z = diag(R_fil) + jω·Lp, equal end-to-end voltage V across every
// filament means Z·i = V·1. Solving with V = 1 gives the admittance
// Y = Σi and the effective impedance 1/Y; then R(f) = Re(1/Y) and
// L(f) = Im(1/Y)/ω.
//
// At f = 0 the current distributes uniformly over the equal-area
// filaments, so the DC limit is returned directly: R = ρl/(wt) and
// L = mean of the filament Lp matrix.
func EffectiveRL(b Bar, rho, f float64, nw, nt int) (RL, error) {
	effectiveRLCalls.Inc()
	defer obs.SinceNs(effectiveRLNs, time.Now())
	if err := b.Validate(); err != nil {
		return RL{}, err
	}
	if err := geom.CheckPositive("resistivity", rho); err != nil {
		return RL{}, fmt.Errorf("peec: %w", err)
	}
	if err := geom.CheckFinite("frequency", f); err != nil {
		return RL{}, fmt.Errorf("peec: %w", err)
	}
	fil := Filaments(b, nw, nt)
	lp := PartialMatrix(fil)
	res := DCResistances(fil, rho)
	return effectiveRLFromSystem(lp, res, f)
}

// effectiveRLFromSystem reduces a parallel filament system with
// partial-inductance matrix lp and per-filament resistances res to an
// effective series RL at frequency f.
func effectiveRLFromSystem(lp *linalg.Matrix, res []float64, f float64) (RL, error) {
	n := len(res)
	if f <= 0 {
		// Uniform current split by conductance (equal-area filaments of
		// equal length have equal resistance, but handle the general
		// case: DC current divides as 1/R).
		g := 0.0
		for _, r := range res {
			g += 1 / r
		}
		rdc := 1 / g
		// L_DC = iᵀ·Lp·i with i the normalized DC distribution.
		i := make([]float64, n)
		for k, r := range res {
			i[k] = (1 / r) / g
		}
		l := 0.0
		for a := 0; a < n; a++ {
			for b := 0; b < n; b++ {
				l += i[a] * lp.At(a, b) * i[b]
			}
		}
		return RL{R: rdc, L: l}, nil
	}
	w := 2 * math.Pi * f
	z := linalg.NewCMatrix(n, n)
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			z.Set(a, b, complex(0, w*lp.At(a, b)))
		}
		z.Add(a, a, complex(res[a], 0))
	}
	ones := make([]complex128, n)
	for k := range ones {
		ones[k] = 1
	}
	i, err := linalg.SolveSystemC(z, ones)
	if err != nil {
		return RL{}, fmt.Errorf("peec: skin-effect solve: %w", err)
	}
	var y complex128
	for _, v := range i {
		y += v
	}
	zeff := 1 / y
	return RL{R: real(zeff), L: imag(zeff) / w}, nil
}
