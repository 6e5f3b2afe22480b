// Package loop computes loop inductance and resistance of
// multiconductor systems: a driven signal conductor returning through
// any combination of coplanar AC-ground traces and local ground planes
// (discretised into strips), per Section II.B of the paper.
//
// Model: every bar is a volume filament connected between a shared
// near node and a shared far node of its role group. The far ends of
// signal and return are shorted (the "merged ground node with the far
// end sink nodes" of the paper); a unit AC current is driven around
// the loop. With the complex branch impedance matrix
// Z = diag(R) + jω·Lp the solver finds the return-current distribution
// and reports Zloop = Rloop + jωLloop. Bars marked RoleOpen carry no
// current but their induced loop-referenced EMF is reported, which
// yields loop mutual inductances (the Fig. 5 matrix).
package loop

import (
	"errors"
	"fmt"
	"math"

	"clockrlc/internal/geom"
	"clockrlc/internal/linalg"
	"clockrlc/internal/peec"
)

// Role classifies a bar's electrical function in a loop solve.
type Role int

const (
	// RoleSignal bars together carry the +1 A drive current.
	RoleSignal Role = iota
	// RoleReturn bars together carry the −1 A return current; all are
	// merged at both the near return node and the far (shorted) node.
	RoleReturn
	// RoleOpen bars carry no current; their induced EMF is observed.
	RoleOpen
)

// Solution is the result of a loop solve.
type Solution struct {
	// R and L are the effective loop resistance (Ω) and inductance (H)
	// seen by the drive at the solve frequency.
	R, L float64
	// MutualL[k] is the loop mutual inductance between the driven loop
	// and the k-th RoleOpen bar (in input order), i.e. the inductance
	// relating drive current to the EMF of the loop formed by that bar
	// and the same return.
	MutualL []float64
	// Currents holds the complex branch current of every bar (zero for
	// open bars), in input order, for a 1 A drive.
	Currents []complex128
}

// Solve computes the loop impedance of the system at frequency f > 0.
// bars, roles and rhos must have equal length; rhos holds per-bar
// resistivities in Ω·m.
func Solve(bars []peec.Bar, roles []Role, rhos []float64, f float64) (*Solution, error) {
	n := len(bars)
	if len(roles) != n || len(rhos) != n {
		return nil, fmt.Errorf("loop: %d bars, %d roles, %d resistivities", n, len(roles), len(rhos))
	}
	if n == 0 {
		return nil, errors.New("loop: empty system")
	}
	if err := geom.CheckPositive("frequency", f); err != nil {
		return nil, fmt.Errorf("loop: %w", err)
	}
	var sig, ret, open []int
	for i, r := range roles {
		switch r {
		case RoleSignal:
			sig = append(sig, i)
		case RoleReturn:
			ret = append(ret, i)
		case RoleOpen:
			open = append(open, i)
		default:
			return nil, fmt.Errorf("loop: bad role %d for bar %d", r, i)
		}
	}
	if len(sig) == 0 {
		return nil, errors.New("loop: no signal bars")
	}
	if len(ret) == 0 {
		return nil, errors.New("loop: no return bars")
	}
	for i, b := range bars {
		if err := b.Validate(); err != nil {
			return nil, fmt.Errorf("loop: bar %d: %w", i, err)
		}
		if err := geom.CheckPositive("resistivity", rhos[i]); err != nil {
			return nil, fmt.Errorf("loop: bar %d: %w", i, err)
		}
	}

	lp := peec.PartialMatrix(bars)
	w := 2 * math.Pi * f

	// Active unknowns: currents of signal+return bars, then the two
	// group drop voltages v_s, v_r.
	active := append(append([]int{}, sig...), ret...)
	na := len(active)
	col := make(map[int]int, na)
	for c, idx := range active {
		col[idx] = c
	}
	dim := na + 2
	vs, vr := na, na+1

	a := linalg.NewCMatrix(dim, dim)
	b := make([]complex128, dim)

	zAt := func(i, j int) complex128 {
		v := complex(0, w*lp.At(i, j))
		if i == j {
			v += complex(rhos[i]*bars[i].L/(bars[i].W*bars[i].T), 0)
		}
		return v
	}

	// Branch voltage equations: Σ_j Z_kj·i_j − v_group = 0.
	for r, k := range active {
		for _, j := range active {
			a.Add(r, col[j], zAt(k, j))
		}
		if roles[k] == RoleSignal {
			a.Add(r, vs, -1)
		} else {
			a.Add(r, vr, -1)
		}
	}
	// KCL constraints: Σ signal = +1, Σ return = −1.
	for _, k := range sig {
		a.Set(na, col[k], 1)
	}
	b[na] = 1
	for _, k := range ret {
		a.Set(na+1, col[k], 1)
	}
	b[na+1] = -1

	x, err := linalg.SolveSystemC(a, b)
	if err != nil {
		return nil, fmt.Errorf("loop: solve: %w", err)
	}

	zloop := x[vs] - x[vr]
	sol := &Solution{
		R:        real(zloop),
		L:        imag(zloop) / w,
		Currents: make([]complex128, n),
	}
	for _, k := range active {
		sol.Currents[k] = x[col[k]]
	}
	// Induced loop EMF on each open bar: its branch drop (driven by
	// mutual coupling only) referenced to the return drop.
	for _, k := range open {
		var emf complex128
		for _, j := range active {
			emf += complex(0, w*lp.At(k, j)) * x[col[j]]
		}
		m := imag(emf-x[vr]) / w
		sol.MutualL = append(sol.MutualL, m)
	}
	return sol, nil
}

// Options configures BlockSolver behaviour.
type Options struct {
	// Frequency of the solve in Hz; must be positive (use the
	// significant frequency 0.32/tr).
	Frequency float64
	// PlaneStrips is the number of strips each ground plane is
	// discretised into (default 12).
	PlaneStrips int
	// SubW, SubT subdivide the driven signal trace into filaments to
	// capture skin/proximity redistribution (default 1×1: uniform
	// current). Return traces are likewise subdivided.
	SubW, SubT int
}

func (o Options) withDefaults() Options {
	if o.PlaneStrips <= 0 {
		o.PlaneStrips = 12
	}
	if o.SubW <= 0 {
		o.SubW = 1
	}
	if o.SubT <= 0 {
		o.SubT = 1
	}
	return o
}

// SolveBlock computes the loop R and L of one signal trace of a
// geom.Block returning through the block's ground traces and plane(s),
// and the loop mutual inductances to every other (open) signal trace.
// signalIdx selects the driven trace. The Solution.MutualL entries are
// ordered by increasing trace index of the open traces.
func SolveBlock(blk *geom.Block, signalIdx int, opts Options) (*Solution, error) {
	if err := blk.Validate(); err != nil {
		return nil, fmt.Errorf("loop: %w", err)
	}
	if signalIdx < 0 || signalIdx >= len(blk.Traces) {
		return nil, fmt.Errorf("loop: signal index %d out of range", signalIdx)
	}
	if blk.IsGround[signalIdx] {
		return nil, fmt.Errorf("loop: trace %d is a ground trace", signalIdx)
	}
	opts = opts.withDefaults()
	if err := geom.CheckPositive("Options.Frequency", opts.Frequency); err != nil {
		return nil, fmt.Errorf("loop: %w", err)
	}

	var bars []peec.Bar
	var roles []Role
	var rhos []float64
	addTrace := func(tr geom.Trace, role Role, subW, subT int) {
		b := peec.BarFromTrace(tr)
		if role == RoleOpen || (subW == 1 && subT == 1) {
			bars = append(bars, b)
			roles = append(roles, role)
			rhos = append(rhos, blk.Rho)
			return
		}
		for _, f := range peec.Filaments(b, subW, subT) {
			bars = append(bars, f)
			roles = append(roles, role)
			rhos = append(rhos, blk.Rho)
		}
	}
	for i, tr := range blk.Traces {
		switch {
		case i == signalIdx:
			addTrace(tr, RoleSignal, opts.SubW, opts.SubT)
		case blk.IsGround[i]:
			addTrace(tr, RoleReturn, opts.SubW, opts.SubT)
		default:
			addTrace(tr, RoleOpen, 1, 1)
		}
	}
	x0 := blk.Traces[0].X0
	length := blk.Traces[0].Length
	for _, p := range []*geom.GroundPlane{blk.PlaneBelow, blk.PlaneAbove} {
		if p == nil {
			continue
		}
		for _, s := range peec.PlaneStrips(*p, x0, length, opts.PlaneStrips) {
			bars = append(bars, s)
			roles = append(roles, RoleReturn)
			rhos = append(rhos, p.Rho)
		}
	}
	return Solve(bars, roles, rhos, opts.Frequency)
}

// LoopMatrix computes the full loop inductance matrix of a block's
// signal traces (the Fig. 5 artifact): entry (i, i) is the loop self
// inductance of signal trace i, entry (i, j) the loop mutual between
// signal traces i and j, all with returns through the block's grounds
// and plane(s). Indices follow blk.SignalIndices() order.
func LoopMatrix(blk *geom.Block, opts Options) (*linalg.Matrix, error) {
	sigs := blk.SignalIndices()
	n := len(sigs)
	m := linalg.NewMatrix(n, n)
	for a, idx := range sigs {
		sol, err := SolveBlock(blk, idx, opts)
		if err != nil {
			return nil, fmt.Errorf("loop: trace %d: %w", idx, err)
		}
		m.Set(a, a, sol.L)
		// MutualL is ordered by increasing open-trace index; map back.
		k := 0
		for b, jdx := range sigs {
			if jdx == idx {
				continue
			}
			_ = jdx
			m.Set(a, b, sol.MutualL[k])
			k++
		}
	}
	return m, nil
}
