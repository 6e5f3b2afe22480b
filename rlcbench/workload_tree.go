package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"strconv"

	"clockrlc/internal/clocktree"
	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

// treeSpec is one H-tree workload: Fig. 9's cross-section (10 µm
// signal, 5 µm shields, 1 µm spacing) under a 4000 µm half-span, driven
// by treesim's default buffer.
type treeSpec struct {
	name   string
	levels int
	shield geom.Shielding
	lookup table.LookupPolicy
	// seeded gives every leaf a distinct load drawn from the seed, which
	// defeats the stage memo for the leaf stages.
	seeded bool
	// setupReps cold set-ups are timed; the coplanar set builds in
	// milliseconds and needs more of them for a steady median.
	setupReps int
	// wantSimulated and wantDeduped are the stage counts of one analysis.
	wantSimulated, wantDeduped int64
}

var (
	treeSkew = treeSpec{name: "tree-skew", levels: 3, shield: geom.ShieldMicrostrip, seeded: true,
		setupReps: 5, wantSimulated: 18, wantDeduped: 3}
	treeDeep = treeSpec{name: "tree-deep", levels: 10, shield: geom.ShieldNone, lookup: table.LookupClamp,
		setupReps: 15, wantSimulated: 10, wantDeduped: 349515}
)

func runTreeSkew(ctx context.Context, e *env) (*outcome, error) { return runTree(ctx, e, treeSkew) }
func runTreeDeep(ctx context.Context, e *env) (*outcome, error) { return runTree(ctx, e, treeDeep) }

// treeResult is one analysis' outcome, as compared against the
// reference.
type treeResult struct {
	Skew, Min, Max     string // %.17g seconds
	Simulated, Deduped int64
}

func resultOf(st *clocktree.ArrivalStats) treeResult {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', 17, 64) }
	rep := st.SkewReport()
	return treeResult{Skew: g(rep.Skew), Min: g(rep.MinArrival), Max: g(rep.MaxArrival),
		Simulated: st.StagesSimulated, Deduped: st.StagesDeduped}
}

// treeRef is testdata/tree_ref.json: per workload, per seed ("*" for a
// workload whose inputs do not depend on the seed), the RC and RLC
// analysis results of this commit.
type treeRef map[string]map[string]map[string]treeResult

//go:embed testdata/tree_ref.json
var treeRefJSON []byte

func loadTreeRef() (treeRef, error) {
	var ref treeRef
	if err := json.Unmarshal(treeRefJSON, &ref); err != nil {
		return nil, fmt.Errorf("testdata/tree_ref.json: %w", err)
	}
	return ref, nil
}

// refFor returns the committed reference of a workload and seed, if any.
func (r treeRef) refFor(name string, seed uint64) (map[string]treeResult, bool) {
	bySeed := r[name]
	if ref, ok := bySeed["*"]; ok {
		return ref, true
	}
	ref, ok := bySeed[strconv.FormatUint(seed, 10)]
	return ref, ok
}

// closeTo reports whether two %.17g values agree within 1e-9 of scale.
func closeTo(a, b string, scale float64) bool {
	x, err1 := strconv.ParseFloat(a, 64)
	y, err2 := strconv.ParseFloat(b, 64)
	if err1 != nil || err2 != nil {
		return false
	}
	return math.Abs(x-y) <= 1e-9*scale
}

// matches reports whether an analysis agrees with its reference: the
// arrivals within 1e-9 relative, the skew within 1e-9 of the latest
// arrival (a nominal tree's skew is rounding noise near 1e-24 s, which
// no relative tolerance can hold), the stage counts exactly.
func (got treeResult) matches(want treeResult) bool {
	scale, err := strconv.ParseFloat(want.Max, 64)
	if err != nil {
		return false
	}
	scale = math.Abs(scale)
	return closeTo(got.Min, want.Min, scale) && closeTo(got.Max, want.Max, scale) && closeTo(got.Skew, want.Skew, scale) &&
		got.Simulated == want.Simulated && got.Deduped == want.Deduped
}

func (s treeSpec) build(ext *core.Extractor) (*clocktree.Tree, error) {
	seg := core.Segment{SignalWidth: units.Um(10), GroundWidth: units.Um(5), Spacing: units.Um(1), Shielding: s.shield}
	buf := clocktree.Buffer{
		DriveRes:       40,
		InputCap:       50 * units.FemtoFarad,
		IntrinsicDelay: 30 * units.PicoSecond,
		OutSlew:        riseTimePs * units.PicoSecond,
	}
	return clocktree.NewTree(clocktree.HTreeLevels(units.Um(4000), s.levels, seg), buf, ext)
}

func (s treeSpec) leafLoads(seed uint64) map[int]float64 {
	if !s.seeded {
		return nil
	}
	r := newRand(seed)
	leaves := 1 << (2 * s.levels)
	loads := make(map[int]float64, leaves)
	for i := 0; i < leaves; i++ {
		loads[i] = 1 + 3*r.Float64()
	}
	return loads
}

// analyze1 runs the RC ("rc") or RLC ("rlc") analysis of the tree.
func analyze1(ctx context.Context, tree *clocktree.Tree, loads map[int]float64, mode string) (treeResult, error) {
	st, err := tree.AnalyzeCtx(ctx, clocktree.SimOptions{WithL: mode == "rlc", LeafLoadScale: loads}, nil)
	if err != nil {
		return treeResult{}, fmt.Errorf("%s analysis: %w", mode, err)
	}
	return resultOf(st), nil
}

// runTree times warm passes of one H-tree; the stage memo decides how
// much of each pass is MNA transients and how much is the walk.
func runTree(ctx context.Context, e *env, s treeSpec) (*outcome, error) {
	oc := newOutcome()
	ref, err := loadTreeRef()
	if err != nil {
		return nil, err
	}
	tr := &tracer{}
	shs := []geom.Shielding{s.shield}
	ext, err := inprocSetup(ctx, e, oc, tr, s.setupReps, shs, core.WithLookupPolicy(s.lookup))
	if err != nil {
		return nil, err
	}
	tree, err := s.build(ext)
	if err != nil {
		return nil, err
	}
	loads := s.leafLoads(e.seed)

	var first map[string]treeResult
	mismatches := 0
	loop := &opLoop{root: "bench.pass", window: e.seconds, sampled: true, traced: e.traced, tr: tr}
	before, p0 := readCounters(), sampleProc()
	err = loop.run(ctx, func(ctx context.Context, i int) error {
		pass := map[string]treeResult{}
		for _, mode := range []string{"rc", "rlc"} {
			res, err := analyze1(ctx, tree, loads, mode)
			if err != nil {
				return err
			}
			pass[mode] = res
		}
		if first == nil {
			first = pass
		} else if pass["rc"] != first["rc"] || pass["rlc"] != first["rlc"] {
			mismatches++
		}
		return nil
	})
	p1, delta := sampleProc(), readCounters().since(before)
	if err != nil {
		return nil, err
	}
	ops := loop.ops()
	oc.attempted += int64(ops)
	oc.failed += int64(loop.failures)
	if loop.failures > 0 {
		oc.notef("CHECK FAILED: %d of %d passes returned an error", loop.failures, ops)
	}
	if err := s.checkResults(ctx, oc, tree, loads, first, mismatches, ref, e.seed); err != nil {
		return nil, err
	}

	if e.traced {
		m := oc.metrics
		b := analyze(obs.BuildTrace(tr.events()), loop.root)
		m["core.self_pct"] = b.share("core.extract", "core.extract_rc")
		m["table.lookup.self_pct"] = b.share("table.lookup")
		m["sim.self_pct"] = b.share("sim.transient")
		m["clocktree.walk_pct"] = b.share("clocktree.arrivals")
		m["clocktree.stage_pct"] = b.share("clocktree.stage")
		m["coverage.unattributed_frac"] = b.unattributed(loop.root)
		m["obs.trace_overhead_frac"] = loop.overhead()
		setLookupMetrics(m, b, delta, ops)
		setSimMetrics(m, b, delta, ops)
		setTreeMetrics(m, delta, ops, loop)
		segs := treeSegments(tree)
		m["core.loopl_batch.us_per_seg"], err = loopLBatchUsPerSeg(ctx, ext, [][]core.Segment{segs})
		if err != nil {
			return nil, err
		}
		m["spline.distinct_query_frac"] = distinctQueryFrac([][]core.Segment{segs})
		setProcMetrics(m, p0, p1, ops)
		path, err := writeTrace(e.traceDir, s.name, tr.events())
		if err != nil {
			return nil, err
		}
		oc.notef("trace: %s (%d traced of %d passes)", path, len(loop.tracedOp), ops)
		return oc, nil
	}

	leaves := float64(int64(2) << (2 * s.levels)) // RC and RLC per pass
	loop.report(oc, leaves, fmt.Sprintf("one RC+RLC pass of a %d-level %v H-tree", s.levels, s.shield))
	oc.notef("work_per_s = sink arrivals computed per second")
	return oc, finishInproc(ctx, oc, ext, shs)
}

// checkResults checks the passes against each other, the stage counts,
// the committed reference where one exists for the seed, and (for the
// seeded tree) the memoized RC walk against the exact walk.
func (s treeSpec) checkResults(ctx context.Context, oc *outcome, tree *clocktree.Tree, loads map[int]float64,
	first map[string]treeResult, mismatches int, ref treeRef, seed uint64) error {
	if first == nil {
		oc.check(false, "no pass completed")
		return nil
	}
	oc.check(mismatches == 0, "%d passes differ from the first", mismatches)
	for _, mode := range []string{"rc", "rlc"} {
		got := first[mode]
		oc.check(got.Simulated == s.wantSimulated && got.Deduped == s.wantDeduped,
			"%s stages simulated/deduped %d/%d, want %d/%d", mode, got.Simulated, got.Deduped, s.wantSimulated, s.wantDeduped)
	}
	if want, ok := ref.refFor(s.name, seed); ok {
		for _, mode := range []string{"rc", "rlc"} {
			got, w := first[mode], want[mode]
			oc.check(got.matches(w), "%s result %+v differs from reference %+v", mode, got, w)
		}
		oc.notef("checked against the committed reference")
	}
	if s.seeded {
		st, err := tree.AnalyzeCtx(ctx, clocktree.SimOptions{LeafLoadScale: loads, NoStageDedup: true}, nil)
		if err != nil {
			return fmt.Errorf("exact RC walk: %w", err)
		}
		exact, memo := resultOf(st), first["rc"]
		oc.check(exact.Skew == memo.Skew && exact.Min == memo.Min && exact.Max == memo.Max,
			"memoized RC walk %+v differs from the exact walk %+v", memo, exact)
	}
	return nil
}

// treeSegments are the distinct wire segments of a tree (trunk and arm
// of every level).
func treeSegments(tree *clocktree.Tree) []core.Segment {
	var segs []core.Segment
	for _, lv := range tree.Levels {
		for _, l := range []float64{lv.TrunkLen, lv.ArmLen} {
			s := lv.Segment
			s.Length = l
			segs = append(segs, s)
		}
	}
	return segs
}

// setSimMetrics fills the MNA transient metrics.
func setSimMetrics(m map[string]float64, b breakdown, delta counters, ops int) {
	runs := float64(delta["sim.transients"])
	if runs == 0 {
		return
	}
	m["sim.transients_per_op"] = runs / float64(ops)
	m["sim.steps_per_run"] = float64(delta["sim.steps"]) / runs
	m["sim.factorizations_per_run"] = float64(delta["sim.factorizations"]) / runs
	var dimSum float64
	var n int
	for _, d := range b.dims {
		dimSum += d
		n++
	}
	if n > 0 {
		mean := dimSum / float64(n)
		m["sim.dim_mean"] = mean
		// A dense LU solve costs about 2·dim² per right-hand side; with
		// the update it is about 6·dim² flops per step. Computed, not
		// measured.
		m["linalg.flops_per_step_computed"] = 6 * mean * mean
	}
	if simPerOp := b.perRoot("sim.transient"); simPerOp > 0 {
		m["sim.steps_per_s"] = float64(delta["sim.steps"]) / float64(ops) / simPerOp
	}
}

// setTreeMetrics fills the walk and stage-memo metrics.
func setTreeMetrics(m map[string]float64, delta counters, ops int, loop *opLoop) {
	sim, dedup := float64(delta["clocktree.stages"]), float64(delta["clocktree.stages_deduped"])
	m["clocktree.stages_simulated"] = sim / float64(ops)
	m["clocktree.stages_deduped"] = dedup / float64(ops)
	if sim+dedup > 0 {
		m["clocktree.dedup_ratio"] = dedup / (sim + dedup)
	}
	if loop.busy > 0 {
		m["clocktree.leaves_per_s"] = float64(delta["clocktree.leaves"]) / loop.busy.Seconds()
	}
}
