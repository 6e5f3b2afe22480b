// Package sim is the SPICE stand-in: a modified-nodal-analysis (MNA)
// transient simulator for the linear RLC(+K) netlists the extractor
// produces. Integration is trapezoidal with a fixed step; because the
// circuits are linear and time appears only in the sources, the system
// matrix is factored once and each step is a single back-substitution —
// exactly the structure SPICE exploits for linear networks.
//
// Compile numbers the unknowns once per netlist shape, in reverse
// Cuthill–McKee order so that G and C lie in a narrow band, and lays
// out their merged compressed-row pattern; each run stamps the values
// and factors in O(n·bw) band storage. A step is one pass over G and C
// plus two sweeps of the compressed LU factors: O(nnz), allocation-free,
// and bit for bit the dense loop on the same numbering. TransientCtx
// records waveforms; CrossingsCtx stops at the last probe's crossing.
package sim

import (
	"context"
	"errors"
	"fmt"
	"slices"
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

// Transient-simulator accounting. Counters are bumped once per compile
// or run (never inside the step loop) so the unobserved hot path is
// untouched; the histograms record per-run shape (system dimension,
// step count, timestep) for profiling the MNA workload.
var (
	simCompiles   = obs.GetCounter("sim.compiles")
	simTransients = obs.GetCounter("sim.transients")
	simSteps      = obs.GetCounter("sim.steps")
	simFactors    = obs.GetCounter("sim.factorizations")
	simNs         = obs.GetCounter("sim.transient_ns")
	simDimHist    = obs.GetHistogram("sim.dim")
	simStepsHist  = obs.GetHistogram("sim.steps_per_run")
	simStepHist   = obs.GetHistogram("sim.timestep_seconds")
)

// Circuit is a netlist compiled for simulation: the descriptor system
// G·x + C·ẋ = b(t) over node voltages, inductor currents and source
// currents. Compile fixes the element counts, the terminals and the
// inductors each mutual couples; each run (TransientCtx, CrossingsCtx,
// ACCtx) validates and stamps the current values, refuses changed
// counts, and cannot see rewiring. A Circuit keeps scratch between runs
// and is not safe for concurrent runs; the package-level functions
// compile one per call and are.
type Circuit struct {
	nl      *netlist.Netlist
	counts  [5]int         // resistors, capacitors, inductors, mutuals and sources at Compile
	nodeIdx map[string]int // node name → its unknown in first-appearance order (ground absent)
	term    []int          // the (A, B) nodes of the resistors, capacitors, inductors and sources; -1 is ground
	pos     []int          // unknown → its row: the nodes, then the inductor currents, then the source currents
	srcRow  []int          // per source: the row of its current, where b(t) carries its voltage
	dim, bw int
	p       pencil
	slots   []int // per stamp, in walk order: its place in p, -1 when dropped for ground

	// Run scratch, reused by every run.
	band            linalg.Band
	lu              linalg.LU
	x, b0, b1, rhsV []float64
	probeIdx        []int
	probeV          []float64
}

// Compile does the structural work of simulating nl once. It reads only
// what it fixes; validating the values is each run's. The stamps' rows
// and columns, nodes numbered in first-appearance order, are the graph
// rcm orders; its edges and every diagonal are G and C's pattern.
func Compile(nl *netlist.Netlist) (*Circuit, error) {
	simCompiles.Inc()
	nL := len(nl.Inductors)
	for _, mu := range nl.Mutuals {
		if min(mu.L1, mu.L2) < 0 || max(mu.L1, mu.L2) >= nL {
			return nil, nl.Validate() // names this mutual or an element before it
		}
	}
	nTerm := 2 * (len(nl.Resistors) + len(nl.Capacitors) + nL + len(nl.VSources))
	c := &Circuit{nl: nl, counts: countsOf(nl), nodeIdx: make(map[string]int, nTerm/2), term: make([]int, 0, nTerm)}
	node := func(name string) int {
		if name == netlist.Ground || name == "gnd" {
			return -1
		}
		i, ok := c.nodeIdx[name]
		if !ok {
			i = len(c.nodeIdx)
			c.nodeIdx[name] = i
		}
		return i
	}
	for _, e := range nl.Resistors {
		c.term = append(c.term, node(e.A), node(e.B))
	}
	for _, e := range nl.Capacitors {
		c.term = append(c.term, node(e.A), node(e.B))
	}
	for _, e := range nl.Inductors {
		c.term = append(c.term, node(e.A), node(e.B))
	}
	for _, e := range nl.VSources {
		c.term = append(c.term, node(e.A), node(e.B))
	}
	n := len(c.nodeIdx) + nL + len(nl.VSources)
	if n == 0 {
		return nil, errors.New("sim: empty circuit")
	}
	c.dim = n

	// Each stamp's place i·n + j before renumbering, -1 for ground.
	c.slots = make([]int, 0, 2*nTerm+nL+2*len(nl.Mutuals))
	c.walk(func(i, j int, _ bool, _ float64) {
		key := -1
		if i >= 0 && j >= 0 {
			key = i*n + j
		}
		c.slots = append(c.slots, key)
	})
	pos, nbrs := rcm(n, c.slots)
	c.pos, c.srcRow = pos, pos[n-len(nl.VSources):]

	// Row pos[v] of the pattern holds v's neighbours and its diagonal,
	// renumbered and sorted; each stamp finds its place in its row.
	c.p.rowPtr = make([]int, n+1)
	for v, nb := range nbrs {
		c.p.rowPtr[pos[v]+1] = len(nb) + 1
	}
	for i := range n {
		c.p.rowPtr[i+1] += c.p.rowPtr[i]
	}
	m := c.p.rowPtr[n]
	c.p.col, c.p.g, c.p.c = make([]int, m), make([]float64, m), make([]float64, m)
	for v, nb := range nbrs {
		row := c.p.col[c.p.rowPtr[pos[v]]:c.p.rowPtr[pos[v]+1]]
		row[len(nb)] = pos[v]
		for k, w := range nb {
			row[k] = pos[w]
			c.bw = max(c.bw, pos[w]-pos[v])
		}
		slices.Sort(row)
	}
	for s, key := range c.slots {
		if key >= 0 {
			i := pos[key/n]
			k, _ := slices.BinarySearch(c.p.col[c.p.rowPtr[i]:c.p.rowPtr[i+1]], pos[key%n])
			c.slots[s] = c.p.rowPtr[i] + k
		}
	}
	scratch := make([]float64, 4*n)
	c.x, c.b0, c.b1, c.rhsV = scratch[:n], scratch[n:2*n], scratch[2*n:3*n], scratch[3*n:]
	return c, nil
}

func countsOf(nl *netlist.Netlist) [5]int {
	return [5]int{len(nl.Resistors), len(nl.Capacitors), len(nl.Inductors), len(nl.Mutuals), len(nl.VSources)}
}

// walk visits the MNA stamps in element order — resistors, capacitors,
// inductors, mutuals, sources — with each stamp's unknowns before
// renumbering (-1 is ground, dropping the stamp), whether it goes into
// C rather than G, and its value.
func (c *Circuit) walk(stamp func(i, j int, inC bool, v float64)) {
	nl, t, nN := c.nl, c.term, len(c.nodeIdx)
	pair := func(inC bool, v float64) {
		a, b := t[0], t[1]
		stamp(a, a, inC, v)
		stamp(b, b, inC, v)
		stamp(a, b, inC, -v)
		stamp(b, a, inC, -v)
		t = t[2:]
	}
	// A branch current's row couples to its terminals: KCL (the current
	// leaves A and enters B) and the branch equation's v_A − v_B.
	branch := func(row int) {
		a, b := t[0], t[1]
		stamp(a, row, false, 1)
		stamp(row, a, false, 1)
		stamp(b, row, false, -1)
		stamp(row, b, false, -1)
		t = t[2:]
	}
	for _, r := range nl.Resistors {
		pair(false, 1/r.R)
	}
	for _, e := range nl.Capacitors {
		pair(true, e.C)
	}
	for k, l := range nl.Inductors {
		branch(nN + k)
		// Branch equation: v_A − v_B − L·di/dt (− M terms) = 0.
		stamp(nN+k, nN+k, true, -l.L)
	}
	for _, mu := range nl.Mutuals {
		stamp(nN+mu.L1, nN+mu.L2, true, -mu.M)
		stamp(nN+mu.L2, nN+mu.L1, true, -mu.M)
	}
	for k := range nl.VSources {
		branch(nN + len(nl.Inductors) + k)
	}
}

// load validates the netlist and stamps its current values into G and
// C: it zeroes the pattern and adds every stamp into its place in
// element order, so each entry is the sum a dense assembly forms, bit
// for bit. A netlist whose element counts changed since Compile is
// refused.
func (c *Circuit) load() error {
	if got := countsOf(c.nl); got != c.counts {
		return fmt.Errorf("sim: netlist changed since Compile: %v resistors, capacitors, inductors, mutuals and sources, compiled with %v", got, c.counts)
	}
	if err := c.nl.Validate(); err != nil {
		return err
	}
	clear(c.p.g)
	clear(c.p.c)
	k := 0
	c.walk(func(_, _ int, inC bool, v float64) {
		if s := c.slots[k]; s >= 0 && inC {
			c.p.c[s] += v
		} else if s >= 0 {
			c.p.g[s] += v
		}
		k++
	})
	return nil
}

// probeRows resolves probe node names to the rows of their voltages,
// -1 for ground, into the Circuit's scratch.
func (c *Circuit) probeRows(probes []string) ([]int, error) {
	c.probeIdx = c.probeIdx[:0]
	for _, name := range probes {
		i, ok := c.nodeIdx[name]
		row := -1
		if ok {
			row = c.pos[i]
		} else if name != netlist.Ground && name != "gnd" {
			return nil, fmt.Errorf("sim: unknown probe node %q", name)
		}
		c.probeIdx = append(c.probeIdx, row)
	}
	return c.probeIdx, nil
}

// rcm numbers the n vertices of the graph whose edges are the
// off-diagonal keys i·n + j (negative ones ignored; the keys are
// symmetric) in reverse Cuthill–McKee order. It returns each vertex's
// position and its distinct neighbours by index. Each connected
// component starts at an unvisited vertex of least degree and is
// searched breadth first, visiting unvisited neighbours by ascending
// degree, ties by index; the whole order is then reversed. No map
// order enters it.
func rcm(n int, keys []int) (pos []int, nbrs [][]int) {
	// Adjacency in flat compressed rows, each row then sorted and
	// compacted in place.
	ptr := make([]int, n+1)
	for _, key := range keys {
		if key >= 0 && key/n != key%n {
			ptr[key/n+1]++
		}
	}
	for v := 0; v < n; v++ {
		ptr[v+1] += ptr[v]
	}
	adj := make([]int, ptr[n])
	fill := slices.Clone(ptr[:n])
	for _, key := range keys {
		if i := key / n; key >= 0 && i != key%n {
			adj[fill[i]] = key % n
			fill[i]++
		}
	}
	nbrs = make([][]int, n)
	for v := range nbrs {
		nbrs[v] = adj[ptr[v]:ptr[v+1]]
		slices.Sort(nbrs[v])
		nbrs[v] = slices.Compact(nbrs[v])
	}

	order := make([]int, 0, n)
	visited := make([]bool, n)
	for len(order) < n {
		start := -1
		for v := 0; v < n; v++ {
			if !visited[v] && (start < 0 || len(nbrs[v]) < len(nbrs[start])) {
				start = v
			}
		}
		visited[start] = true
		order = append(order, start)
		for head := len(order) - 1; head < len(order); head++ {
			v := order[head]
			next := len(order)
			for _, w := range nbrs[v] {
				if !visited[w] {
					visited[w] = true
					order = append(order, w)
				}
			}
			// The neighbours arrive by index; a stable sort by degree
			// orders them by (degree, index).
			nb := order[next:]
			for i := 1; i < len(nb); i++ {
				for j := i; j > 0 && len(nbrs[nb[j]]) < len(nbrs[nb[j-1]]); j-- {
					nb[j], nb[j-1] = nb[j-1], nb[j]
				}
			}
		}
	}
	pos = make([]int, n)
	for i, v := range order {
		pos[v] = n - 1 - i
	}
	return pos, nbrs
}

// rhs writes b(t)'s source rows: each carries its source's voltage.
// Every other row of b(t) is zero, and rhs leaves it as it is.
func (c *Circuit) rhs(t float64, b []float64) {
	for k, v := range c.nl.VSources {
		b[c.srcRow[k]] = v.Wave.At(t)
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

// TransientCtx is Transient honouring cancellation: it compiles nl and
// runs (*Circuit).TransientCtx.
func TransientCtx(ctx context.Context, nl *netlist.Netlist, h, tstop float64, probes []string) (*Result, error) {
	c, err := Compile(nl)
	if err != nil {
		return nil, err
	}
	return c.TransientCtx(ctx, h, tstop, probes)
}

// TransientCtx runs Transient on the netlist's current values,
// honouring cancellation (polled every cancelCheckStride steps, so a
// cancel lands within a handful of back-substitutions) and guarded
// against divergence: the right-hand side and the state vector are
// checked for NaN/Inf on every step, and a non-finite one aborts with
// ErrDiverged naming the step instead of returning poisoned waveforms
// (a non-finite solve also matches linalg.ErrIllConditioned).
func (c *Circuit) TransientCtx(ctx context.Context, h, tstop float64, probes []string) (*Result, error) {
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
	err = c.simulate(ctx, h, steps, probes, func(_ int, t float64, v []float64) bool {
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

// CrossingsCtx compiles nl and runs (*Circuit).CrossingsCtx.
func CrossingsCtx(ctx context.Context, nl *netlist.Netlist, h, tstop float64, probes []string, level float64, rising bool) ([]float64, error) {
	c, err := Compile(nl)
	if err != nil {
		return nil, err
	}
	return c.CrossingsCtx(ctx, h, tstop, probes, level, rising)
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
func (c *Circuit) CrossingsCtx(ctx context.Context, h, tstop float64, probes []string, level float64, rising bool) ([]float64, error) {
	steps, err := stepCount(h, tstop)
	if err != nil {
		return nil, err
	}
	times := make([]float64, len(probes))
	crossed := make([]bool, len(probes))
	prev := make([]float64, len(probes))
	var prevT float64
	left := len(probes)
	err = c.simulate(ctx, h, steps, probes, func(n int, t float64, v []float64) bool {
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

// pencil is G and C on their merged compressed-row pattern: row i's
// entries sit in columns col[rowPtr[i]:rowPtr[i+1]], ascending, with
// G's value in g and C's in c (either, or both, may be zero).
type pencil struct {
	rowPtr, col []int
	g, c        []float64
}

// nonzeros counts the nonzero values of G plus those of C.
func (p *pencil) nonzeros() int {
	nnz := 0
	for k := range p.g {
		if p.g[k] != 0 {
			nnz++
		}
		if p.c[k] != 0 {
			nnz++
		}
	}
	return nnz
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

// factor builds G + s·C (G alone for s = 0) from the pattern into band
// storage and factors it into the Circuit's LU.
func (c *Circuit) factor(s float64) error {
	p := &c.p
	c.band.Reset(c.dim, c.bw)
	for i := range c.dim {
		for k := p.rowPtr[i]; k < p.rowPtr[i+1]; k++ {
			v := p.g[k]
			if s != 0 {
				v += s * p.c[k]
			}
			c.band.Set(i, p.col[k], v)
		}
	}
	simFactors.Inc()
	return c.lu.FactorBand(&c.band)
}

// simulate is the one set-up and step loop behind TransientCtx and
// CrossingsCtx, traced as a sim.transient span. Set-up stamps the
// values, solves the DC operating point and factors the trapezoidal
// matrix. visit then sees the probed voltages at step 0 (the DC point)
// and after each step n at t = n·h; returning true stops the run. The
// span's steps attribute is the steps run, horizon_steps those to
// tstop, and bw the half-bandwidth factored in.
func (c *Circuit) simulate(ctx context.Context, h float64, steps int, probes []string,
	visit func(n int, t float64, v []float64) bool) error {
	if ctx == nil {
		ctx = context.Background()
	}
	_, sp := obs.StartCtx(ctx, "sim.transient")
	defer sp.End()
	simTransients.Inc()
	simStepHist.Observe(h)
	defer obs.SinceNs(simNs, time.Now())
	if err := c.load(); err != nil {
		return err
	}
	p, n := &c.p, c.dim
	// Attributes are boxed only for a recording span, so an untraced
	// run's allocations do not depend on the values.
	traced := sp.Active()
	if traced {
		sp.SetAttr("dim", n)
		sp.SetAttr("bw", c.bw)
		sp.SetAttr("nnz", p.nonzeros())
	}
	simDimHist.Observe(float64(n))
	probeIdx, err := c.probeRows(probes)
	if err != nil {
		return err
	}

	// DC operating point: G·x = b(0). b0 is also the first step's
	// b(t0). Only the source rows of b0 and b1 are ever written.
	b0, b1, x := c.b0, c.b1, c.x
	clear(b0)
	clear(b1)
	c.rhs(0, b0)
	if err := c.factor(0); err != nil {
		return fmt.Errorf("sim: DC operating point is singular (floating node or inductor loop): %w", err)
	}
	if err := c.lu.SolveInPlace(b0, x); err != nil {
		return solveErr(err, "sim: DC operating point")
	}

	// Trapezoidal system matrix A = G + (2/h)·C. Off the merged pattern
	// both are +0, and so is A. It is factored once, into the same
	// storage; every step is one solve.
	s := 2 / h
	if err := c.factor(s); err != nil {
		return fmt.Errorf("sim: transient matrix singular: %w", err)
	}
	af := &c.lu
	ran := 0
	defer func() {
		// Bulk-add once per run; nothing observes inside the step loop.
		simSteps.Add(int64(ran))
		simStepsHist.Observe(float64(ran))
		if traced {
			sp.SetAttr("lu_nnz", af.NNZ())
			sp.SetAttr("horizon_steps", steps)
			sp.SetAttr("steps", ran)
		}
	}()
	v := slices.Grow(c.probeV[:0], len(probes))[:len(probes)]
	c.probeV = v
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
	// solve land in the Circuit's buffers, and b(t1) of one step is
	// b(t0) of the next.
	rhsVec := c.rhsV
	for step := 1; step <= steps; step++ {
		if step%cancelCheckStride == 0 {
			if err := ctx.Err(); err != nil {
				return err
			}
		}
		t1 := float64(step) * h
		c.rhs(t1, b1)
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
