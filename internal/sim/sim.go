// Package sim is the SPICE stand-in: a modified-nodal-analysis (MNA)
// transient simulator for the linear RLC(+K) netlists the extractor
// produces. Integration is trapezoidal with a fixed step; because the
// circuits are linear and time appears only in the sources, the system
// matrix is factored once and each step is a single back-substitution —
// exactly the structure SPICE exploits for linear networks.
//
// Assembly numbers the unknowns (node voltages, inductor currents,
// source currents) in reverse Cuthill–McKee order, so every nonzero of
// G and C lies within a narrow band of the diagonal — two or three
// places for an extracted ladder — and elimination, which works only
// inside that band, leaves little fill. G and C are walked on one
// merged compressed-row pattern and the LU factors in compressed-row
// form: a step is one pass over the rows of G and C plus two
// triangular sweeps, costs O(nnz), allocates nothing, and gives the
// same floating-point results as the dense loop on the same numbering.
// The dense assembly buffers double as elimination workspaces and are
// pooled across runs.
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
	"slices"
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
// stacks node voltages, inductor currents and source currents, in the
// reverse Cuthill–McKee order assemble gives them. Every nonzero of G
// and C lies within bw of the diagonal.
type mna struct {
	nl      *netlist.Netlist
	nodeIdx map[string]int // node name → unknown before renumbering (ground absent)
	pos     []int          // unknown before renumbering → its row and column
	srcRow  []int          // per source: the row of its current, where b(t) carries its voltage
	dim, bw int
	g, c    *linalg.Matrix
}

// node returns the row of a node's voltage, -1 for ground; ok is false
// for a name the netlist does not have.
func (m *mna) node(name string) (row int, ok bool) {
	if name == netlist.Ground || name == "gnd" {
		return -1, true
	}
	i, ok := m.nodeIdx[name]
	if !ok {
		return -1, false
	}
	return m.pos[i], true
}

// probeRows resolves probe node names to their rows, -1 for ground.
func (m *mna) probeRows(probes []string) ([]int, error) {
	rows := make([]int, len(probes))
	for k, name := range probes {
		var ok bool
		if rows[k], ok = m.node(name); !ok {
			return nil, fmt.Errorf("sim: unknown probe node %q", name)
		}
	}
	return rows, nil
}

// assemble stamps nl into G and C, taking both dim×dim matrices from
// densePool. A caller that keeps them simply never puts them back.
//
// Before renumbering, the unknowns are the nodes in first-appearance
// order, then the inductor currents, then the source currents. Each
// element's terminals are resolved to those integers once; the
// incidence they give is the graph rcm orders, and the stamps land at
// the renumbered rows and columns. Each entry sums its stamps in
// element order whatever the numbering, so renumbering permutes G and
// C without changing an entry.
func assemble(nl *netlist.Netlist) (*mna, error) {
	if err := nl.Validate(); err != nil {
		return nil, err
	}
	nR, nC, nL, nV := len(nl.Resistors), len(nl.Capacitors), len(nl.Inductors), len(nl.VSources)
	m := &mna{nl: nl, nodeIdx: make(map[string]int, nR+nC+nL+nV)}
	node := func(name string) int {
		if name == netlist.Ground || name == "gnd" {
			return -1
		}
		i, ok := m.nodeIdx[name]
		if !ok {
			i = len(m.nodeIdx)
			m.nodeIdx[name] = i
		}
		return i
	}
	// term holds the (A, B) unknowns of the resistors, capacitors,
	// inductors and sources, in that order; -1 is ground.
	term := make([]int, 0, 2*(nR+nC+nL+nV))
	for _, e := range nl.Resistors {
		term = append(term, node(e.A), node(e.B))
	}
	for _, e := range nl.Capacitors {
		term = append(term, node(e.A), node(e.B))
	}
	for _, e := range nl.Inductors {
		term = append(term, node(e.A), node(e.B))
	}
	for _, e := range nl.VSources {
		term = append(term, node(e.A), node(e.B))
	}
	nN := len(m.nodeIdx)
	m.dim = nN + nL + nV
	if m.dim == 0 {
		return nil, errors.New("sim: empty circuit")
	}

	// The off-diagonal couplings, as pairs of unknowns: a resistor or
	// capacitor couples its terminals, an inductor or source couples
	// its current to each terminal, and a mutual couples two inductor
	// currents.
	edges := make([]int, 0, 2*(nR+nC+2*nL+len(nl.Mutuals)+2*nV))
	for e := 0; e < nR+nC; e++ {
		if a, b := term[2*e], term[2*e+1]; a >= 0 && b >= 0 {
			edges = append(edges, a, b)
		}
	}
	// Inductor k's current is unknown nN+k and source k's nN+nL+k;
	// their terminals follow the resistors' and capacitors' in term.
	for k := 0; k < nL+nV; k++ {
		cur := nN + k
		for _, t := range term[2*(nR+nC+k) : 2*(nR+nC+k)+2] {
			if t >= 0 {
				edges = append(edges, t, cur)
			}
		}
	}
	for _, mu := range nl.Mutuals {
		edges = append(edges, nN+mu.L1, nN+mu.L2)
	}
	m.pos = rcm(m.dim, edges)
	for e := 0; e < len(edges); e += 2 {
		a, b := m.pos[edges[e]], m.pos[edges[e+1]]
		m.bw = max(m.bw, a-b, b-a)
	}
	for i, t := range term {
		if t >= 0 {
			term[i] = m.pos[t]
		}
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
	// stampBranch couples a branch current's row to its terminals:
	// KCL (the current leaves A and enters B) and the branch equation's
	// v_A − v_B.
	stampBranch := func(row, a, b int) {
		if a >= 0 {
			m.g.Add(a, row, 1)
			m.g.Add(row, a, 1)
		}
		if b >= 0 {
			m.g.Add(b, row, -1)
			m.g.Add(row, b, -1)
		}
	}
	t := term
	for _, r := range nl.Resistors {
		stampPair(m.g, t[0], t[1], 1/r.R)
		t = t[2:]
	}
	for _, c := range nl.Capacitors {
		stampPair(m.c, t[0], t[1], c.C)
		t = t[2:]
	}
	for k, l := range nl.Inductors {
		row := m.pos[nN+k]
		stampBranch(row, t[0], t[1])
		// Branch equation: v_A − v_B − L·di/dt (− M terms) = 0.
		m.c.Add(row, row, -l.L)
		t = t[2:]
	}
	for _, mu := range nl.Mutuals {
		r1, r2 := m.pos[nN+mu.L1], m.pos[nN+mu.L2]
		m.c.Add(r1, r2, -mu.M)
		m.c.Add(r2, r1, -mu.M)
	}
	m.srcRow = make([]int, nV)
	for k := range nl.VSources {
		m.srcRow[k] = m.pos[nN+nL+k]
		stampBranch(m.srcRow[k], t[0], t[1])
		t = t[2:]
	}
	return m, nil
}

// rcm numbers the n vertices of the graph whose edges are the pairs
// (edges[2e], edges[2e+1]) in reverse Cuthill–McKee order and returns
// each vertex's position. Each connected component starts at an
// unvisited vertex of least degree and is searched breadth first,
// visiting each vertex's unvisited neighbours by ascending degree,
// ties by index; the whole order is then reversed. Nothing depends on
// map order, so the numbering is a function of the netlist alone.
func rcm(n int, edges []int) []int {
	// Adjacency in flat compressed rows: vertex v's distinct
	// neighbours, by index, are adj[ptr[v]:ptr[v]+deg[v]].
	ptr := make([]int, n+1)
	for _, v := range edges {
		ptr[v+1]++
	}
	for v := 0; v < n; v++ {
		ptr[v+1] += ptr[v]
	}
	adj := make([]int, len(edges))
	fill := make([]int, n)
	copy(fill, ptr[:n])
	for e := 0; e < len(edges); e += 2 {
		a, b := edges[e], edges[e+1]
		adj[fill[a]], adj[fill[b]] = b, a
		fill[a]++
		fill[b]++
	}
	deg := fill // reused: the distinct-neighbour count of each vertex
	for v := 0; v < n; v++ {
		nb := adj[ptr[v]:ptr[v+1]]
		slices.Sort(nb)
		deg[v] = len(slices.Compact(nb))
	}

	order := make([]int, 0, n)
	visited := make([]bool, n)
	for len(order) < n {
		start := -1
		for v := 0; v < n; v++ {
			if !visited[v] && (start < 0 || deg[v] < deg[start]) {
				start = v
			}
		}
		visited[start] = true
		order = append(order, start)
		for head := len(order) - 1; head < len(order); head++ {
			v := order[head]
			next := len(order)
			for _, w := range adj[ptr[v] : ptr[v]+deg[v]] {
				if !visited[w] {
					visited[w] = true
					order = append(order, w)
				}
			}
			// The neighbours arrive by index; a stable sort by degree
			// orders them by (degree, index).
			nb := order[next:]
			for i := 1; i < len(nb); i++ {
				for j := i; j > 0 && deg[nb[j]] < deg[nb[j-1]]; j-- {
					nb[j], nb[j-1] = nb[j-1], nb[j]
				}
			}
		}
	}
	pos := make([]int, n)
	for i, v := range order {
		pos[v] = n - 1 - i
	}
	return pos
}

// rhs writes b(t)'s source rows: each carries its source's voltage.
// Every other row of b(t) is zero, and rhs leaves it as it is.
func (m *mna) rhs(t float64, b []float64) {
	for k, v := range m.nl.VSources {
		b[m.srcRow[k]] = v.Wave.At(t)
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
	// Waveforms are sized for the whole run up to preallocSteps steps;
	// a longer run grows them as it goes, so a vast grid costs memory
	// only for the steps it runs.
	samples := min(steps, preallocSteps) + 1
	res := &Result{
		Time:   make([]float64, 0, samples),
		Probes: make(map[string][]float64, len(probes)),
	}
	waves := make([][]float64, len(probes))
	for k := range waves {
		waves[k] = make([]float64, 0, samples)
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

// maxSteps caps a time grid's step count: up to 2^53 every step index
// n, and so each step's time float64(n)·h, is computed from an exact
// float64(n).
const maxSteps = 1 << 53

// preallocSteps caps the steps TransientCtx sizes its waveforms for
// up front (8 MB per waveform).
const preallocSteps = 1 << 20

// stepCount validates a time grid and returns its number of steps. A
// non-finite h or tstop, or a grid of more than maxSteps steps, is a
// bad time grid; the comparisons are written so that NaN fails them.
func stepCount(h, tstop float64) (int, error) {
	steps := tstop/h + 0.5
	if !(h > 0) || !(tstop >= h) || !(steps <= maxSteps) {
		return 0, fmt.Errorf("sim: bad time grid (h=%g, tstop=%g)", h, tstop)
	}
	return int(steps), nil
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

// pencil is G and C on their merged compressed-row pattern: row i's
// entries sit in columns col[rowPtr[i]:rowPtr[i+1]], ascending, with
// G's value in g and C's in c (one of them may be zero).
type pencil struct {
	rowPtr, col []int
	g, c        []float64
	nnz         int // nonzeros of G plus nonzeros of C
}

// compressPencil reads G and C inside the band into their merged
// pattern.
func compressPencil(m *mna) *pencil {
	n, bw := m.dim, m.bw
	g, c := m.g.Data, m.c.Data
	entries := 0
	for i := 0; i < n; i++ {
		lo, hi := i*n+max(0, i-bw), i*n+min(n-1, i+bw)+1
		for j := lo; j < hi; j++ {
			if g[j] != 0 || c[j] != 0 {
				entries++
			}
		}
	}
	p := &pencil{
		rowPtr: make([]int, 1, n+1),
		col:    make([]int, 0, entries),
		g:      make([]float64, 0, entries),
		c:      make([]float64, 0, entries),
	}
	for i := 0; i < n; i++ {
		for j := max(0, i-bw); j <= min(n-1, i+bw); j++ {
			gv, cv := g[i*n+j], c[i*n+j]
			if gv == 0 && cv == 0 {
				continue
			}
			p.col = append(p.col, j)
			p.g = append(p.g, gv)
			p.c = append(p.c, cv)
			if gv != 0 {
				p.nnz++
			}
			if cv != 0 {
				p.nnz++
			}
		}
		p.rowPtr = append(p.rowPtr, len(p.col))
	}
	return p
}

// stepRHS forms the trapezoidal right-hand side
// rhs = b0 + ((b1 + s·C·x) − G·x) in one pass over the rows, and
// reports whether every component is finite. C·x and G·x stay two sums
// rather than one product by a pre-merged s·C − G, and each row sums
// them in column order from +0: a term the merged pattern holds for
// only one of the two matrices adds an exact zero, so for a finite x
// every rounding is that of the dense products. rhs must not alias x.
func (p *pencil) stepRHS(rhs, x, b0, b1 []float64, s float64) bool {
	// 0·r is ±0 for a finite r and NaN otherwise, so chk stays zero
	// exactly while every component is finite.
	chk := 0.0
	for i := range rhs {
		lo, hi := p.rowPtr[i], p.rowPtr[i+1]
		cols, gv, cv := p.col[lo:hi], p.g[lo:hi], p.c[lo:hi]
		cx, gx := 0.0, 0.0
		for k, j := range cols {
			xj := x[j]
			cx += cv[k] * xj
			gx += gv[k] * xj
		}
		r := b0[i] + ((b1[i] + s*cx) - gx)
		rhs[i] = r
		chk += 0 * r
	}
	return chk == 0
}

// simulate is the one set-up and step loop behind TransientCtx and
// CrossingsCtx, traced as a sim.transient span. Set-up assembles the
// MNA system, compresses G and C, solves the DC operating point and
// factors the trapezoidal system matrix, all inside the band the
// numbering gives. visit then sees the probed node voltages at step 0
// (the DC operating point) and after each step n at t = n·h; returning
// true stops the run there. The span's steps attribute is the number of
// steps run, horizon_steps the number a full run to tstop takes, and bw
// the half-bandwidth the system factored in.
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
	p := compressPencil(m)
	sp.SetAttr("dim", m.dim)
	sp.SetAttr("bw", m.bw)
	sp.SetAttr("nnz", p.nnz)
	simDimHist.Observe(float64(m.dim))
	probeIdx, err := m.probeRows(probes)
	if err != nil {
		return err
	}

	// Trapezoidal system matrix A = G + (2/h)·C, built into C's buffer
	// while G is still intact. Off the merged pattern both are +0, and
	// so is A.
	s := 2 / h
	n := m.dim
	for i := 0; i < n; i++ {
		for k := p.rowPtr[i]; k < p.rowPtr[i+1]; k++ {
			m.c.Data[i*n+p.col[k]] = p.g[k] + s*p.c[k]
		}
	}

	// DC operating point: G·x = b(0), eliminating in G's buffer. b0 is
	// also the first step's b(t0).
	b0 := make([]float64, n)
	m.rhs(0, b0)
	gf, err := linalg.FactorInPlace(m.g, m.bw)
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
	af, err := linalg.FactorInPlace(m.c, m.bw)
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

	// The step loop allocates nothing: the right-hand side and the
	// solve land in these buffers. Only the source rows of b0 and b1
	// are ever written, and b(t1) of one step is b(t0) of the next.
	b1 := make([]float64, n)
	rhsVec := make([]float64, n)
	for step := 1; step <= steps; step++ {
		if step%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		t1 := float64(step) * h
		m.rhs(t1, b1)
		if !p.stepRHS(rhsVec, x, b0, b1, s) {
			simDiverged.Inc()
			return fmt.Errorf("sim: step %d (t=%g s): right-hand side non-finite (bad source?): %w", step, t1, ErrDiverged)
		}
		if err := af.SolveInPlace(rhsVec, x); err != nil {
			return solveErr(err, fmt.Sprintf("sim: step %d (t=%g s)", step, t1))
		}
		b0, b1 = b1, b0
		ran = step
		if visit(step, t1, sample()) {
			return nil
		}
	}
	return nil
}
