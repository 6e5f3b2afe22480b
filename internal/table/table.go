// Package table implements the paper's table-based inductance
// extraction (Section III): per layer and per shielding configuration,
// a self-inductance table over (width, length) and a mutual-inductance
// table over (width1, width2, spacing, length) are pre-computed with
// the numerical engine (internal/peec + internal/loop standing in for
// Raphael RI3) at the significant frequency, then interpolated with
// tensor-product cubic splines at lookup time.
//
// For the free (no ground plane) configuration the tables store
// partial inductances under the PEEC model — the simulator determines
// the return path. For microstrip/stripline configurations the tables
// store loop inductances with the plane(s) merged into the return, per
// Section II.B, so the planes never appear in the final netlist.
package table

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"time"

	"clockrlc/internal/check"
	"clockrlc/internal/fault"
	"clockrlc/internal/geom"
	"clockrlc/internal/loop"
	"clockrlc/internal/obs"
	"clockrlc/internal/peec"
	"clockrlc/internal/spline"
	"clockrlc/internal/units"
)

// Table accounting. Builds report their engine-solve counts and wall
// time; self_entries and mutual_entries count entries actually solved
// (the mirrored symmetric half of the mutual table is not re-counted).
// Lookups distinguish in-range interpolations (lookup_hits) from
// queries outside the table axes (lookup_clamped), which the splines
// extrapolate linearly — accurate only mildly beyond the grid, so a
// nonzero clamp count is worth surfacing to the user.
var (
	tablesBuilt   = obs.GetCounter("table.builds")
	tableBuildNs  = obs.GetCounter("table.build_ns")
	tableSolves   = obs.GetCounter("table.solver_calls")
	tableSelfEnts = obs.GetCounter("table.self_entries")
	tableMutEnts  = obs.GetCounter("table.mutual_entries")
	lookupHits    = obs.GetCounter("table.lookup_hits")
	lookupClamped = obs.GetCounter("table.lookup_clamped")
	buildTimeHist = obs.GetHistogram("table.build_seconds")

	// Per-policy accounting of the out-of-range lookups themselves.
	// lookup_clamped above keeps its PR 1 meaning — every out-of-range
	// lookup, whatever the policy did about it — so existing dashboards
	// and the rlcx warning stay accurate; the three counters below
	// split that total by outcome.
	lookupOOBExtrapolated = obs.GetCounter("table.lookup_oob_extrapolated")
	lookupOOBClamps       = obs.GetCounter("table.lookup_oob_clamps")
	lookupOOBErrors       = obs.GetCounter("table.lookup_oob_errors")
)

// ClampedLookups returns the process-wide count of table lookups that
// fell outside the built axes (whatever the lookup policy did about
// them).
func ClampedLookups() int64 { return lookupClamped.Value() }

// ErrOutOfRange is the sentinel a LookupError-policy lookup unwraps
// to when its coordinates fall outside the built axes.
var ErrOutOfRange = errors.New("table: lookup outside built axes")

// LookupPolicy selects what an out-of-range lookup does. Every
// out-of-range lookup is counted (table.lookup_clamped plus the
// per-outcome counters) under every policy — the policies differ only
// in the value returned.
type LookupPolicy int

const (
	// LookupExtrapolate (the default, and the pre-existing behaviour)
	// lets the spline extrapolate its end slope linearly — accurate
	// only mildly beyond the grid, per the paper's usage.
	LookupExtrapolate LookupPolicy = iota
	// LookupClamp clamps each coordinate to the nearest axis endpoint
	// and interpolates there, bounding the answer by the table's range.
	LookupClamp
	// LookupError refuses the lookup with an error unwrapping to
	// ErrOutOfRange that names the offending coordinates and axes.
	LookupError
)

func (p LookupPolicy) String() string {
	switch p {
	case LookupExtrapolate:
		return "extrapolate"
	case LookupClamp:
		return "clamp"
	case LookupError:
		return "error"
	}
	return fmt.Sprintf("LookupPolicy(%d)", int(p))
}

// ParseLookupPolicy parses the -lookup-policy flag values
// "extrapolate", "clamp" and "error" (case-insensitive).
func ParseLookupPolicy(s string) (LookupPolicy, error) {
	switch strings.ToLower(s) {
	case "extrapolate":
		return LookupExtrapolate, nil
	case "clamp":
		return LookupClamp, nil
	case "error":
		return LookupError, nil
	}
	return LookupExtrapolate, fmt.Errorf("table: bad lookup policy %q (want extrapolate, clamp or error)", s)
}

// Config identifies the extraction context a table set is built for.
type Config struct {
	// Name labels the set, conventionally "<layer>/<shielding>".
	Name string
	// Thickness is the layer's nominal metal thickness (m); the paper
	// assumes one nominal thickness per layer.
	Thickness float64
	// Rho is the metal resistivity (Ω·m).
	Rho float64
	// Shielding selects partial (ShieldNone) vs loop (microstrip /
	// stripline) inductance entries.
	Shielding geom.Shielding
	// PlaneGap is the dielectric gap between the trace bottom and the
	// plane top (m); PlaneThickness the plane's metal thickness.
	// Required for microstrip and stripline.
	PlaneGap, PlaneThickness float64
	// Frequency is the significant frequency the entries are extracted
	// at (0.32/tr).
	Frequency float64
	// PlaneStrips controls the plane discretisation (default 12).
	PlaneStrips int
	// SubW, SubT subdivide traces for skin effect during table build
	// (defaults 4 and 2).
	SubW, SubT int
	// Workers bounds the build's worker pool; the sweep entries are
	// independent field solves, so they parallelise embarrassingly.
	// Zero or negative selects GOMAXPROCS. The built values are
	// bit-for-bit independent of the worker count.
	Workers int
}

func (c Config) withDefaults() Config {
	if c.PlaneStrips <= 0 {
		c.PlaneStrips = 12
	}
	if c.SubW <= 0 {
		c.SubW = 4
	}
	if c.SubT <= 0 {
		c.SubT = 2
	}
	return c
}

// Validate checks the configuration is buildable.
func (c Config) Validate() error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"thickness", c.Thickness},
		{"resistivity", c.Rho},
		{"frequency", c.Frequency},
	} {
		if err := geom.CheckPositive(f.name, f.v); err != nil {
			return fmt.Errorf("table: %w", err)
		}
	}
	if c.Shielding == geom.ShieldNone {
		return nil
	}
	if err := geom.CheckPositive("PlaneGap", c.PlaneGap); err != nil {
		return fmt.Errorf("table: %v configuration needs a plane: %w", c.Shielding, err)
	}
	if err := geom.CheckPositive("PlaneThickness", c.PlaneThickness); err != nil {
		return fmt.Errorf("table: %v configuration needs a plane: %w", c.Shielding, err)
	}
	return nil
}

// Axes are the sweep points of a table build. The paper's self table
// is (width × length) and its mutual table (w1 × w2 × spacing ×
// length); spacings are edge-to-edge. Lengths and spacings should be
// log-spaced: inductance is logarithmic in both.
type Axes struct {
	Widths   []float64
	Spacings []float64
	Lengths  []float64
}

// Validate checks the axes are usable.
func (a Axes) Validate() error {
	for name, ax := range map[string][]float64{
		"widths": a.Widths, "spacings": a.Spacings, "lengths": a.Lengths,
	} {
		if len(ax) < 2 {
			return fmt.Errorf("table: need at least two %s", name)
		}
		for i, v := range ax {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("table: %s[%d] = %g is not finite", name, i, v)
			}
			if v <= 0 {
				return fmt.Errorf("table: %s[%d] = %g must be positive", name, i, v)
			}
			if i > 0 && v <= ax[i-1] {
				return fmt.Errorf("table: %s must be strictly increasing", name)
			}
		}
	}
	return nil
}

// LogAxis returns n log-spaced points from a to b inclusive.
func LogAxis(a, b float64, n int) []float64 {
	if n < 2 || a <= 0 || b <= a {
		panic(fmt.Sprintf("table: bad LogAxis(%g, %g, %d)", a, b, n))
	}
	out := make([]float64, n)
	la, lb := math.Log(a), math.Log(b)
	for i := range out {
		out[i] = math.Exp(la + (lb-la)*float64(i)/float64(n-1))
	}
	out[0], out[n-1] = a, b // exact endpoints despite rounding
	return out
}

// DefaultAxes returns a sensible sweep for clocktree geometries:
// widths 0.6–20 µm, edge-to-edge spacings 0.6–10 µm, lengths
// 50–8000 µm. The spacing axis is tabulated out to 40 µm — beyond the
// 10 µm user sweep — because loop composition also looks up the
// ground-to-ground coupling at 2·spacing + signalWidth, which reaches
// 40 µm at the sweep corners; tabulating it keeps in-range segments
// free of extrapolation clamps.
func DefaultAxes() Axes {
	return Axes{
		Widths:   LogAxis(units.Um(0.6), units.Um(20), 6),
		Spacings: LogAxis(units.Um(0.6), units.Um(40), 6),
		Lengths:  LogAxis(units.Um(50), units.Um(8000), 8),
	}
}

// Set is one built table set: the self and mutual grids plus their
// provenance. Set values are immutable after build, and lookups read
// only precomputed spline coefficients, so SelfL/MutualL are safe to
// call from any number of goroutines sharing one Set.
type Set struct {
	Config Config
	Axes   Axes
	// Self is indexed (width, length); Mutual (w1, w2, spacing,
	// length). Values in henries.
	Self, Mutual *spline.Grid
	// Lookup selects what out-of-range lookups do (the zero value,
	// LookupExtrapolate, is the pre-existing behaviour). Set it before
	// sharing the Set across goroutines; it is not persisted by the
	// codec.
	Lookup LookupPolicy
}

// Build sweeps the numerical engine over the axes and assembles the
// spline tables. Self entries come from 1-trace solves, mutual
// entries from 2-trace solves, each with the configuration's plane(s)
// when shielded. The sweep runs on a bounded worker pool
// (cfg.Workers, default GOMAXPROCS); entries are written by index, so
// the result is bit-for-bit identical to a serial build.
func Build(cfg Config, axes Axes) (*Set, error) {
	return BuildCtx(context.Background(), cfg, axes)
}

// transientRetry re-attempts transient failures (per
// fault.IsTransient) of a field solve or of cache I/O a few times with
// jittered backoff. Deterministic errors — a solver error, a corrupt
// or missing cache entry — fail on the first try.
var transientRetry = fault.Policy{
	Attempts: 3,
	Base:     time.Millisecond,
	Max:      50 * time.Millisecond,
	Factor:   4,
	Jitter:   0.5,
}

// BuildCtx is Build honouring cancellation and deadlines: a cancelled
// ctx stops the sweep within one cell's solve time, drains every
// worker (no goroutine survives the return) and yields ctx.Err().
// Transient solver failures are retried per transientRetry; a panicking
// sweep cell surfaces as a *CellPanic carrying its cell index.
func BuildCtx(ctx context.Context, cfg Config, axes Axes) (*Set, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := axes.Validate(); err != nil {
		return nil, err
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	// The build span rides the context: every worker's per-cell span
	// parents under it explicitly (obs.StartCtx), so a parallel build's
	// trace reconstructs exactly at any worker count.
	ctx, sp := obs.StartCtx(ctx, "table.build")
	sp.SetAttr("name", cfg.Name)
	sp.SetAttr("workers", workers)
	defer sp.End()
	t0 := time.Now()
	defer func() {
		tablesBuilt.Inc()
		d := time.Since(t0)
		tableBuildNs.Add(d.Nanoseconds())
		buildTimeHist.Observe(d.Seconds())
	}()
	s := &Set{Config: cfg, Axes: axes}

	nw, ns, nl := len(axes.Widths), len(axes.Spacings), len(axes.Lengths)
	selfVals := make([]float64, nw*nl)
	err := ParallelForCtx(ctx, len(selfVals), workers, func(k int) error {
		w, l := axes.Widths[k/nl], axes.Lengths[k%nl]
		_, csp := obs.StartCtx(ctx, "table.self_cell")
		csp.SetAttr("cell", k)
		defer csp.End()
		return transientRetry.Do(ctx, "table.self", func() error {
			v, err := selfEntry(cfg, w, l)
			if err != nil {
				return fmt.Errorf("table: self(w=%g, l=%g): %w", w, l, err)
			}
			selfVals[k] = v
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	tableSelfEnts.Add(int64(len(selfVals)))
	s.Self, err = spline.NewGrid([][]float64{axes.Widths, axes.Lengths}, selfVals)
	if err != nil {
		return nil, err
	}
	sp.SetAttr("self_entries", len(selfVals))

	// Mutual is symmetric in (w1, w2): solve only the upper triangle
	// and mirror the transposed entries afterwards.
	type mutJob struct {
		w1, w2, sp, l float64
		idx           int
	}
	jobs := make([]mutJob, 0, nw*(nw+1)/2*ns*nl)
	for i, w1 := range axes.Widths {
		for j := i; j < nw; j++ {
			w2 := axes.Widths[j]
			for si, spc := range axes.Spacings {
				for li, l := range axes.Lengths {
					jobs = append(jobs, mutJob{w1, w2, spc, l, ((i*nw+j)*ns+si)*nl + li})
				}
			}
		}
	}
	mutVals := make([]float64, nw*nw*ns*nl)
	err = ParallelForCtx(ctx, len(jobs), workers, func(k int) error {
		jb := jobs[k]
		_, csp := obs.StartCtx(ctx, "table.mutual_cell")
		csp.SetAttr("cell", k)
		defer csp.End()
		return transientRetry.Do(ctx, "table.mutual", func() error {
			v, err := mutualEntry(cfg, jb.w1, jb.w2, jb.sp, jb.l)
			if err != nil {
				return fmt.Errorf("table: mutual(w1=%g, w2=%g, s=%g, l=%g): %w", jb.w1, jb.w2, jb.sp, jb.l, err)
			}
			mutVals[jb.idx] = v
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	// Only the solved (upper-triangle) entries count as built; the
	// mirrored half reuses them.
	tableMutEnts.Add(int64(len(jobs)))
	sp.SetAttr("mutual_entries", len(mutVals))
	sp.SetAttr("mutual_solves", len(jobs))
	for i := 1; i < nw; i++ {
		for j := 0; j < i; j++ {
			upper := ((j*nw + i) * ns) * nl
			lower := ((i*nw + j) * ns) * nl
			copy(mutVals[lower:lower+ns*nl], mutVals[upper:upper+ns*nl])
		}
	}
	s.Mutual, err = spline.NewGrid(
		[][]float64{axes.Widths, axes.Widths, axes.Spacings, axes.Lengths}, mutVals)
	if err != nil {
		return nil, err
	}
	// Post-build audit: when the process check engine is armed, a
	// freshly built set that already violates a physical invariant is
	// counted (Warn) or rejected before anything downstream can consume
	// it (Strict).
	if err := s.reportAudit(check.Active()); err != nil {
		return nil, err
	}
	return s, nil
}

// selfEntry extracts one self-table value.
func selfEntry(cfg Config, w, l float64) (float64, error) {
	tableSolves.Inc()
	if err := fault.Check(fault.SolverCall); err != nil {
		return 0, err
	}
	if cfg.Shielding == geom.ShieldNone {
		rl, err := peec.EffectiveRL(
			peec.Bar{Axis: peec.AxisX, O: [3]float64{0, -w / 2, 0}, L: l, W: w, T: cfg.Thickness},
			cfg.Rho, cfg.Frequency, cfg.SubW, cfg.SubT)
		if err != nil {
			return 0, err
		}
		return rl.L, nil
	}
	blk := oneTraceBlock(cfg, w, l)
	sol, err := loop.SolveBlock(blk, 0, loopOpts(cfg))
	if err != nil {
		return 0, err
	}
	return sol.L, nil
}

// mutualEntry extracts one mutual-table value.
func mutualEntry(cfg Config, w1, w2, sp, l float64) (float64, error) {
	tableSolves.Inc()
	if err := fault.Check(fault.SolverCall); err != nil {
		return 0, err
	}
	if cfg.Shielding == geom.ShieldNone {
		a := peec.Bar{Axis: peec.AxisX, O: [3]float64{0, 0, 0}, L: l, W: w1, T: cfg.Thickness}
		b := peec.Bar{Axis: peec.AxisX, O: [3]float64{0, w1 + sp, 0}, L: l, W: w2, T: cfg.Thickness}
		return peec.HoerLoveMutual(a, b), nil
	}
	blk := twoTraceBlock(cfg, w1, w2, sp, l)
	sol, err := loop.SolveBlock(blk, 0, loopOpts(cfg))
	if err != nil {
		return 0, err
	}
	if len(sol.MutualL) != 1 {
		return 0, errors.New("table: two-trace solve returned no mutual")
	}
	return sol.MutualL[0], nil
}

func loopOpts(cfg Config) loop.Options {
	return loop.Options{
		Frequency:   cfg.Frequency,
		PlaneStrips: cfg.PlaneStrips,
		SubW:        cfg.SubW,
		SubT:        cfg.SubT,
	}
}

// planes builds the configuration's ground plane(s) around traces at
// thickness-centre z = cfg.Thickness/2, sized relative to the block
// footprint.
func planes(cfg Config, footprint float64) (below, above *geom.GroundPlane) {
	mk := func(z float64) *geom.GroundPlane {
		return &geom.GroundPlane{
			Z:         z,
			Thickness: cfg.PlaneThickness,
			Width:     3*footprint + 20*cfg.PlaneGap,
			Rho:       cfg.Rho,
		}
	}
	switch cfg.Shielding {
	case geom.ShieldMicrostrip:
		below = mk(-cfg.PlaneGap - cfg.PlaneThickness/2)
	case geom.ShieldStripline:
		below = mk(-cfg.PlaneGap - cfg.PlaneThickness/2)
		above = mk(cfg.Thickness + cfg.PlaneGap + cfg.PlaneThickness/2)
	}
	return below, above
}

func oneTraceBlock(cfg Config, w, l float64) *geom.Block {
	below, above := planes(cfg, w)
	return &geom.Block{
		Traces: []geom.Trace{
			{X0: 0, Y: 0, Z: cfg.Thickness / 2, Length: l, Width: w, Thickness: cfg.Thickness},
		},
		IsGround:   []bool{false},
		PlaneBelow: below,
		PlaneAbove: above,
		Rho:        cfg.Rho,
	}
}

func twoTraceBlock(cfg Config, w1, w2, sp, l float64) *geom.Block {
	below, above := planes(cfg, w1+w2+sp)
	return &geom.Block{
		Traces: []geom.Trace{
			{X0: 0, Y: 0, Z: cfg.Thickness / 2, Length: l, Width: w1, Thickness: cfg.Thickness},
			{X0: 0, Y: w1/2 + sp + w2/2, Z: cfg.Thickness / 2, Length: l, Width: w2, Thickness: cfg.Thickness},
		},
		IsGround:   []bool{false, false},
		PlaneBelow: below,
		PlaneAbove: above,
		Rho:        cfg.Rho,
	}
}

// inRange reports whether v lies within the axis' built sweep.
func inRange(ax []float64, v float64) bool {
	return v >= ax[0] && v <= ax[len(ax)-1]
}

// positive reports whether a lookup argument is a finite positive
// number: NaN fails the first comparison and +Inf the second, so
// neither reaches the spline, which rejects both.
func positive(v float64) bool { return v > 0 && v <= math.MaxFloat64 }

// clampTo clamps v to the axis' built range.
func clampTo(ax []float64, v float64) float64 {
	if v < ax[0] {
		return ax[0]
	}
	if last := ax[len(ax)-1]; v > last {
		return last
	}
	return v
}

// SelfL looks up the self inductance for a trace of width w and
// length l. Coordinates outside the built axes are handled per
// s.Lookup: extrapolated (default), clamped to the axis endpoints, or
// refused with an error unwrapping to ErrOutOfRange — each outcome
// counted. When the process check engine is armed, the looked-up value
// itself is checked finite and positive. It is a one-query SelfLBatch
// and returns that query's own error, not the *BatchError.
func (s *Set) SelfL(w, l float64) (float64, error) {
	var out [1]float64
	if err := s.SelfLBatch([]float64{w}, []float64{l}, out[:]); err != nil {
		return 0, queryErr(err)
	}
	return out[0], nil
}

// MutualL looks up the mutual inductance between parallel traces of
// widths w1 and w2, edge-to-edge spacing sp, common length l.
// Out-of-range coordinates follow s.Lookup as in SelfL; armed checks
// require the value finite and non-negative. It is a one-query
// MutualLBatch, as SelfL is a one-query SelfLBatch.
func (s *Set) MutualL(w1, w2, sp, l float64) (float64, error) {
	var out [1]float64
	if err := s.MutualLBatch([]float64{w1}, []float64{w2}, []float64{sp}, []float64{l}, out[:]); err != nil {
		return 0, queryErr(err)
	}
	return out[0], nil
}
