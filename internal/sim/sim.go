// Package sim is the SPICE stand-in: a modified-nodal-analysis (MNA)
// transient simulator for the linear RLC(+K) netlists the extractor
// produces. Integration is trapezoidal with a fixed step; because the
// circuits are linear and time appears only in the sources, the system
// matrix is factored once and each step is a single back-substitution —
// exactly the structure SPICE exploits for linear networks. The MNA
// matrices of extracted ladders are almost empty, so G, C and the LU
// factors are walked in compressed-row form: a step costs O(nnz), not
// O(dim²), allocates nothing, and gives the same floating-point results
// as the dense loop. The dense assembly buffers double as elimination
// workspaces and are pooled across runs.
//
// One set-up and one step loop serve two entry points: TransientCtx
// records the probed waveforms to the horizon, and CrossingsCtx keeps
// only each probe's first threshold crossing and stops stepping once
// every probe has crossed — a stage delay costs the steps up to its
// slowest sink, with the same result bit for bit.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"clockrlc/internal/linalg"
	"clockrlc/internal/netlist"
	"clockrlc/internal/obs"
)

// ErrDiverged is returned when a simulation's state vector stops
// being finite — numerical divergence or a poisoned source — instead
// of recording NaN/Inf waveforms that silently corrupt every derived
// delay and skew number.
var ErrDiverged = errors.New("sim: solution diverged (non-finite values)")

// simDiverged counts transient/AC runs aborted by the divergence
// guard.
var simDiverged = obs.GetCounter("sim.diverged")

// finiteVec reports whether every component of x is finite.
func finiteVec(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// solveErr names a failed solve. A finite right-hand side that yields
// a non-finite solution (linalg.ErrIllConditioned) means the run
// diverged: it is counted and matches both ErrDiverged and
// linalg.ErrIllConditioned under errors.Is.
func solveErr(err error, what string) error {
	if errors.Is(err, linalg.ErrIllConditioned) {
		simDiverged.Inc()
		return fmt.Errorf("%s: %w: %w", what, ErrDiverged, err)
	}
	return fmt.Errorf("%s: %w", what, err)
}

// cancelCheckStride bounds how many integration steps run between
// context polls: cancellation latency stays under a few dozen
// back-substitutions while the hot loop stays branch-cheap.
const cancelCheckStride = 64

// Transient-simulator accounting. Counters are bumped once per run
// (never inside the step loop) so the unobserved hot path is
// untouched; the histograms record per-run shape (system dimension,
// step count, timestep) for profiling the MNA workload.
var (
	simTransients = obs.GetCounter("sim.transients")
	simSteps      = obs.GetCounter("sim.steps")
	simFactors    = obs.GetCounter("sim.factorizations")
	simNs         = obs.GetCounter("sim.transient_ns")
	simDimHist    = obs.GetHistogram("sim.dim")
	simStepsHist  = obs.GetHistogram("sim.steps_per_run")
	simStepHist   = obs.GetHistogram("sim.timestep_seconds")
)

// mna holds the assembled descriptor system G·x + C·ẋ = b(t) where x
// stacks node voltages, inductor currents and source currents.
type mna struct {
	nl       *netlist.Netlist
	nodeIdx  map[string]int // node name → column (ground absent)
	nNodes   int
	indBase  int // first inductor-current column
	srcBase  int // first source-current column
	dim      int
	g, c     *linalg.Matrix
	srcNodes [][2]int // per source: (A idx, B idx), -1 = ground
}

func nodeOf(m map[string]int, name string) int {
	if name == netlist.Ground || name == "gnd" {
		return -1
	}
	return m[name]
}

// assemble stamps nl into G and C, taking both dim×dim matrices from
// densePool. A caller that keeps them simply never puts them back.
func assemble(nl *netlist.Netlist) (*mna, error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	nodes := nl.Nodes()
	m := &mna{
		nl:      nl,
		nodeIdx: make(map[string]int, len(nodes)),
		nNodes:  len(nodes),
	}
	for i, n := range nodes {
		m.nodeIdx[n] = i
	}
	m.indBase = m.nNodes
	m.srcBase = m.nNodes + len(nl.Inductors)
	m.dim = m.srcBase + len(nl.VSources)
	if m.dim == 0 {
		return nil, errors.New("sim: empty circuit")
	}
	m.g = pooledDense(m.dim)
	m.c = pooledDense(m.dim)

	stampPair := func(mat *linalg.Matrix, a, b int, v float64) {
		if a >= 0 {
			mat.Add(a, a, v)
		}
		if b >= 0 {
			mat.Add(b, b, v)
		}
		if a >= 0 && b >= 0 {
			mat.Add(a, b, -v)
			mat.Add(b, a, -v)
		}
	}
	for _, r := range nl.Resistors {
		stampPair(m.g, nodeOf(m.nodeIdx, r.A), nodeOf(m.nodeIdx, r.B), 1/r.R)
	}
	for _, c := range nl.Capacitors {
		stampPair(m.c, nodeOf(m.nodeIdx, c.A), nodeOf(m.nodeIdx, c.B), c.C)
	}
	for k, l := range nl.Inductors {
		row := m.indBase + k
		a, b := nodeOf(m.nodeIdx, l.A), nodeOf(m.nodeIdx, l.B)
		// KCL: branch current leaves A, enters B.
		if a >= 0 {
			m.g.Add(a, row, 1)
			m.g.Add(row, a, 1)
		}
		if b >= 0 {
			m.g.Add(b, row, -1)
			m.g.Add(row, b, -1)
		}
		// Branch equation: v_A − v_B − L·di/dt (− M terms) = 0.
		m.c.Add(row, row, -l.L)
	}
	for _, mu := range nl.Mutuals {
		r1 := m.indBase + mu.L1
		r2 := m.indBase + mu.L2
		m.c.Add(r1, r2, -mu.M)
		m.c.Add(r2, r1, -mu.M)
	}
	m.srcNodes = make([][2]int, len(nl.VSources))
	for k, v := range nl.VSources {
		row := m.srcBase + k
		a, b := nodeOf(m.nodeIdx, v.A), nodeOf(m.nodeIdx, v.B)
		m.srcNodes[k] = [2]int{a, b}
		if a >= 0 {
			m.g.Add(a, row, 1)
			m.g.Add(row, a, 1)
		}
		if b >= 0 {
			m.g.Add(b, row, -1)
			m.g.Add(row, b, -1)
		}
	}
	return m, nil
}

// rhs fills b(t): source rows carry the source voltages.
func (m *mna) rhs(t float64, b []float64) {
	for i := range b {
		b[i] = 0
	}
	for k, v := range m.nl.VSources {
		b[m.srcBase+k] = v.Wave.At(t)
	}
}

// Result holds a transient run: the time axis and the probed node
// voltage waveforms.
type Result struct {
	Time   []float64
	Probes map[string][]float64
}

// Waveform returns the samples for a probed node.
func (r *Result) Waveform(node string) ([]float64, error) {
	w, ok := r.Probes[node]
	if !ok {
		return nil, fmt.Errorf("sim: node %q was not probed", node)
	}
	return w, nil
}

// Transient runs a fixed-step trapezoidal simulation from 0 to tstop
// with step h, recording the voltages of the probe nodes (ground may
// be probed and is identically zero). The initial state is the DC
// operating point of the sources at t = 0.
func Transient(nl *netlist.Netlist, h, tstop float64, probes []string) (*Result, error) {
	return TransientCtx(context.Background(), nl, h, tstop, probes)
}

// TransientCtx is Transient honouring cancellation (polled every
// cancelCheckStride steps, so a cancel lands within a handful of
// back-substitutions) and guarded against divergence: the right-hand
// side and the state vector are checked for NaN/Inf on every step, and
// a non-finite one aborts with ErrDiverged naming the step instead of
// returning poisoned waveforms (a non-finite solve also matches
// linalg.ErrIllConditioned).
func TransientCtx(ctx context.Context, nl *netlist.Netlist, h, tstop float64, probes []string) (*Result, error) {
	steps, err := stepCount(h, tstop)
	if err != nil {
		return nil, err
	}
	res := &Result{
		Time:   make([]float64, 0, steps+1),
		Probes: make(map[string][]float64, len(probes)),
	}
	waves := make([][]float64, len(probes))
	for k := range waves {
		waves[k] = make([]float64, 0, steps+1)
	}
	err = simulate(ctx, nl, h, steps, probes, func(_ int, t float64, v []float64) bool {
		res.Time = append(res.Time, t)
		for k, x := range v {
			waves[k] = append(waves[k], x)
		}
		return false
	})
	if err != nil {
		return nil, err
	}
	for k, p := range probes {
		res.Probes[p] = waves[k]
	}
	return res, nil
}

// NoCrossingError reports a probe whose voltage never crossed the
// level by the end of a CrossingsCtx run.
type NoCrossingError struct {
	Probe        string
	Level, Tstop float64
}

func (e *NoCrossingError) Error() string {
	return fmt.Sprintf("sim: probe %q never crosses %g by t=%g s", e.Probe, e.Level, e.Tstop)
}

// CrossingsCtx runs the transient of TransientCtx but records no
// waveform: it returns each probe's first crossing of level in the
// given direction (rising: from below to at-or-above), interpolated as
// CrossTime does, and stops stepping as soon as every probe has
// crossed. A crossing depends only on the samples up to it, and every
// step that runs is the step TransientCtx runs, so each time is bit for
// bit what CrossTime (and for level = v0 + 0.5·(v1 − v0), DelayFromT0)
// measures on the full waveform; tstop only caps the run. A probe that
// has not crossed by tstop yields a *NoCrossingError naming it. The
// cancellation and divergence guards are TransientCtx's, and an armed
// check engine vets every crossing time as it vets DelayFromT0's.
func CrossingsCtx(ctx context.Context, nl *netlist.Netlist, h, tstop float64, probes []string, level float64, rising bool) ([]float64, error) {
	steps, err := stepCount(h, tstop)
	if err != nil {
		return nil, err
	}
	times := make([]float64, len(probes))
	crossed := make([]bool, len(probes))
	prev := make([]float64, len(probes))
	var prevT float64
	left := len(probes)
	err = simulate(ctx, nl, h, steps, probes, func(n int, t float64, v []float64) bool {
		if n > 0 {
			for k, b := range v {
				if crossed[k] {
					continue
				}
				if tc, ok := crossing(prevT, t, prev[k], b, level, rising); ok {
					times[k], crossed[k] = tc, true
					left--
				}
			}
		}
		copy(prev, v)
		prevT = t
		return left == 0
	})
	if err != nil {
		return nil, err
	}
	for k, p := range probes {
		if !crossed[k] {
			return nil, &NoCrossingError{Probe: p, Level: level, Tstop: float64(steps) * h}
		}
		if err := checkDelay("CrossingsCtx", times[k]); err != nil {
			return nil, err
		}
	}
	return times, nil
}

// stepCount validates a time grid and returns its number of steps.
func stepCount(h, tstop float64) (int, error) {
	if h <= 0 || tstop <= 0 || tstop < h {
		return 0, fmt.Errorf("sim: bad time grid (h=%g, tstop=%g)", h, tstop)
	}
	return int(tstop/h + 0.5), nil
}

// densePool recycles the dense dim×dim assembly buffers of G and C
// across transients. Both double as elimination workspaces (G for the
// DC operating point, C's buffer for A = G + (2/h)·C), and everything
// the step loop reads is copied out in compressed form, so the buffers
// are pure scratch once set-up ends.
var densePool = sync.Pool{New: func() any { return new(linalg.Matrix) }}

// pooledDense returns a zeroed n×n matrix from densePool.
func pooledDense(n int) *linalg.Matrix {
	m := densePool.Get().(*linalg.Matrix)
	if cap(m.Data) < n*n {
		m.Data = make([]float64, n*n)
	} else {
		m.Data = m.Data[:n*n]
		clear(m.Data)
	}
	m.Rows, m.Cols = n, n
	return m
}

// simulate is the one set-up and step loop behind TransientCtx and
// CrossingsCtx, traced as a sim.transient span. Set-up assembles the
// MNA system, compresses G and C, solves the DC operating point and
// factors the trapezoidal system matrix. visit then sees the probed
// node voltages at step 0 (the DC operating point) and after each step
// n at t = n·h; returning true stops the run there. The span's steps
// attribute is the number of steps run, horizon_steps the number a
// full run to tstop takes.
func simulate(ctx context.Context, nl *netlist.Netlist, h float64, steps int, probes []string,
	visit func(n int, t float64, v []float64) bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	_, sp := obs.StartCtx(ctx, "sim.transient")
	defer sp.End()
	simTransients.Inc()
	simStepHist.Observe(h)
	defer obs.SinceNs(simNs, time.Now())
	m, err := assemble(nl)
	if err != nil {
		return err
	}
	// G and C are assembled dense but are almost empty; every step
	// multiplies by them, so compress them once.
	g, c := linalg.Compress(m.g), linalg.Compress(m.c)
	sp.SetAttr("dim", m.dim)
	sp.SetAttr("nnz", g.NNZ()+c.NNZ())
	simDimHist.Observe(float64(m.dim))
	// Probe columns are resolved once; -1 records ground.
	probeIdx := make([]int, len(probes))
	for k, p := range probes {
		probeIdx[k] = nodeOf(m.nodeIdx, p)
		if probeIdx[k] < 0 {
			continue
		}
		if _, ok := m.nodeIdx[p]; !ok {
			return fmt.Errorf("sim: unknown probe node %q", p)
		}
	}

	// Trapezoidal system matrix A = G + (2/h)·C, built into C's buffer
	// while G is still intact.
	s := 2 / h
	for i, gv := range m.g.Data {
		m.c.Data[i] = gv + s*m.c.Data[i]
	}

	// DC operating point: G·x = b(0), eliminating in G's buffer.
	b0 := make([]float64, m.dim)
	m.rhs(0, b0)
	gf, err := linalg.FactorInPlace(m.g)
	simFactors.Inc()
	if err != nil {
		return fmt.Errorf("sim: DC operating point is singular (floating node or inductor loop): %w", err)
	}
	x, err := gf.Solve(b0)
	if err != nil {
		return solveErr(err, "sim: DC operating point")
	}

	// A is factored once; every step is one solve. The factors are
	// copied out in compressed form, so both dense buffers go back.
	af, err := linalg.FactorInPlace(m.c)
	simFactors.Inc()
	densePool.Put(m.g)
	densePool.Put(m.c)
	m.g, m.c = nil, nil
	if err != nil {
		return fmt.Errorf("sim: transient matrix singular: %w", err)
	}
	sp.SetAttr("lu_nnz", af.NNZ())
	sp.SetAttr("horizon_steps", steps)

	ran := 0
	defer func() {
		// Bulk-add once per run; nothing observes inside the step loop.
		simSteps.Add(int64(ran))
		simStepsHist.Observe(float64(ran))
		sp.SetAttr("steps", ran)
	}()
	v := make([]float64, len(probes))
	sample := func() []float64 {
		for k, idx := range probeIdx {
			v[k] = 0
			if idx >= 0 {
				v[k] = x[idx]
			}
		}
		return v
	}
	if visit(0, 0, sample()) {
		return nil
	}

	// The step loop allocates nothing: products, right-hand sides and
	// the solve all land in these buffers.
	cx := make([]float64, m.dim)
	gx := make([]float64, m.dim)
	bNext := make([]float64, m.dim)
	rhsVec := make([]float64, m.dim)
	for n := 1; n <= steps; n++ {
		if n%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		t0 := float64(n-1) * h
		t1 := float64(n) * h
		// rhs = (2/h)C·x0 − G·x0 + b(t0) + b(t1). Kept as two products
		// rather than one pre-merged (2/h)C − G so the rounding matches
		// term for term.
		c.MulVecTo(cx, x)
		g.MulVecTo(gx, x)
		m.rhs(t0, rhsVec)
		m.rhs(t1, bNext)
		for i := range rhsVec {
			rhsVec[i] += bNext[i] + s*cx[i] - gx[i]
		}
		if !finiteVec(rhsVec) {
			simDiverged.Inc()
			return fmt.Errorf("sim: step %d (t=%g s): right-hand side non-finite (bad source?): %w", n, t1, ErrDiverged)
		}
		if err := af.SolveInPlace(rhsVec, x); err != nil {
			return solveErr(err, fmt.Sprintf("sim: step %d (t=%g s)", n, t1))
		}
		ran = n
		if visit(n, t1, sample()) {
			return nil
		}
	}
	return nil
}
