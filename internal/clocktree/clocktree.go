// Package clocktree implements Section V of the paper: RLC extraction
// and skew simulation of a buffered H-tree clock distribution network
// (Fig. 7), with each wire segment realised as a shielded building
// block — coplanar waveguide (Fig. 8) or microstrip (Fig. 9) — and the
// passive portion between buffer levels formulated as cascaded
// RLC-segment ladders using the table-based loop inductances.
//
// The clock buffers follow the paper's driver model: a Thevenin source
// (series resistance, the "about 40 ohm" of Fig. 1) launching a ramp,
// plus an input capacitance loading the upstream stage and an
// intrinsic delay. Stages are linear, so the tree is simulated stage
// by stage and arrivals accumulate along root-to-leaf paths. A stage's
// transient runs only until its last sink has crossed 50 %: the delay
// metric is each sink's first crossing, which later samples cannot
// change.
package clocktree

import (
	"context"
	"errors"
	"fmt"

	"clockrlc/internal/core"
	"clockrlc/internal/netlist"
	"clockrlc/internal/obs"
	"clockrlc/internal/sim"
)

// H-tree simulation accounting: stages are the unit of transient work
// (one MNA run each), leaves the unit of skew statistics.
var (
	treeStages = obs.GetCounter("clocktree.stages")
	treeLeaves = obs.GetCounter("clocktree.leaves")
)

// Buffer is the clock buffer model.
type Buffer struct {
	// DriveRes is the Thevenin output resistance in Ω.
	DriveRes float64
	// InputCap is the capacitance a buffer input presents, in F.
	InputCap float64
	// IntrinsicDelay is added per buffer stage, in s.
	IntrinsicDelay float64
	// OutSlew is the output ramp's 0–100 % rise time, in s.
	OutSlew float64
}

// Validate checks the buffer model.
func (b Buffer) Validate() error {
	if b.DriveRes <= 0 || b.InputCap <= 0 || b.OutSlew <= 0 || b.IntrinsicDelay < 0 {
		return fmt.Errorf("clocktree: buffer fields out of range: %+v", b)
	}
	return nil
}

// Level describes the wire geometry of one buffer level's H: the
// trunk runs from the driving buffer sideways to the two split points,
// the arms from each split point to the four receiving buffers.
type Level struct {
	TrunkLen, ArmLen float64
	Segment          core.Segment // Length is ignored; widths/spacing/shielding used
}

// Tree is a buffered H-tree clock network.
type Tree struct {
	Levels []Level
	Buffer Buffer
	Ext    *core.Extractor
}

// NewTree assembles and validates a tree.
func NewTree(levels []Level, buf Buffer, ext *core.Extractor) (*Tree, error) {
	if len(levels) == 0 {
		return nil, errors.New("clocktree: need at least one level")
	}
	if err := buf.Validate(); err != nil {
		return nil, err
	}
	if ext == nil {
		return nil, errors.New("clocktree: nil extractor")
	}
	for i, l := range levels {
		if l.TrunkLen <= 0 || l.ArmLen <= 0 {
			return nil, fmt.Errorf("clocktree: level %d has non-positive wire lengths", i)
		}
		s := l.Segment
		s.Length = l.TrunkLen
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("clocktree: level %d: %w", i, err)
		}
	}
	return &Tree{Levels: levels, Buffer: buf, Ext: ext}, nil
}

// HTreeLevels builds a classic H-tree level stack for a die of the
// given half-span: level ℓ's trunk reaches halfSpan/2^ℓ and its arms
// half of that, halving each level. All levels share the segment
// profile (widths typically taper in real designs; callers can edit
// the returned slice).
func HTreeLevels(halfSpan float64, nLevels int, seg core.Segment) []Level {
	levels := make([]Level, nLevels)
	span := halfSpan
	for i := range levels {
		levels[i] = Level{TrunkLen: span, ArmLen: span / 2, Segment: seg}
		span /= 2
	}
	return levels
}

// SimOptions controls a tree simulation.
type SimOptions struct {
	// WithL selects the RLC netlist; false extracts RC only (the
	// paper's comparison baseline).
	WithL bool
	// Sections per segment ladder (default 6).
	Sections int
	// TimeStep is each stage transient's trapezoidal step (default
	// OutSlew/100).
	TimeStep float64
	// Horizon caps each stage transient (default 40·OutSlew). It is a
	// cap, not a run length: stepping stops at the stage's last sink
	// 50 % crossing, and only a sink that has not switched by Horizon
	// is an error.
	Horizon float64
	// Scale optionally perturbs a stage instance's extracted R, C and
	// L by the given multipliers (process variation). The paper's
	// proposal keeps L at 1 while R and C vary; setting the third
	// entry exercises the full variation for comparison. Indexed by
	// stage instance id as produced by Arrivals; nil means nominal
	// everywhere.
	Scale map[int][3]float64
	// LeafLoadScale optionally scales the load capacitance of
	// individual leaves to model sink load imbalance. Keys are leaf
	// indices in H-order — the order Arrivals returns them: leaf
	// stages left to right across the last level, four sinks per
	// stage, so leaves 4k..4k+3 hang off the k-th leaf stage. Absent
	// keys mean nominal (×1) load.
	LeafLoadScale map[int]float64
	// NoStageDedup forces the legacy exact walk: every stage instance
	// runs its own transient even when an identical instance (same
	// level, scale and sink loads) has already been simulated. The
	// default memoized walk is bit-identical — identical inputs yield
	// identical transients — so this exists for pinning tests and
	// paranoia runs, at O(4^levels) instead of O(distinct stages)
	// transient cost.
	NoStageDedup bool
	// SampleCap bounds the reservoir of raw arrival samples Analyze
	// keeps alongside the running statistics (0 = none). The reservoir
	// is deterministic: the same tree and options select the same
	// sample at any checkpoint/resume schedule.
	SampleCap int
}

func (o SimOptions) withDefaults(buf Buffer) SimOptions {
	if o.Sections <= 0 {
		o.Sections = 6
	}
	if o.TimeStep <= 0 {
		o.TimeStep = buf.OutSlew / 100
	}
	if o.Horizon <= 0 {
		o.Horizon = 40 * buf.OutSlew
	}
	return o
}

// nominalScale and nominalLoads are the multipliers an unperturbed
// stage carries. Multiplying by exactly 1.0 is a bitwise no-op, so a
// stage with these multipliers simulates bit-identically to the
// pre-memoization code path that skipped the multiply entirely.
var (
	nominalScale = [3]float64{1, 1, 1}
	nominalLoads = [4]float64{1, 1, 1, 1}
)

// stageSinks are the probes of a stage circuit: its four sinks.
var stageSinks = []string{"s0", "s1", "s2", "s3"}

// stageTopo is what the structure of a stage's circuit depends on
// within one analysis, whose options fix WithL and Sections: every
// stage is a driver, two trunk ladders, four arm ladders and four sink
// loads, and a ladder whose L/sections is 0 has no inductors.
type stageTopo struct{ trunkL, armL bool }

// ladderAt locates a ladder's elements in a stage netlist: its first
// resistor, capacitor and inductor.
type ladderAt struct{ r, c, l int }

// stageCircuit is a stage netlist compiled once for its topology. Each
// stage of that topology writes its own values into nl and reruns c.
type stageCircuit struct {
	nl       *netlist.Netlist
	c        *sim.Circuit
	sections int
	inputCap float64     // the buffer input capacitance a sink load scales
	ladders  [6]ladderAt // the trunks to L and R, then the arms to s0..s3
	loads    [4]int      // the sink loads' capacitors
}

// newStageCircuit builds and compiles the stage netlist with the given
// trunk, arm and sink-load values.
func (t *Tree) newStageCircuit(opts SimOptions, trunk, arm netlist.SegmentRLC, loads [4]float64) (*stageCircuit, error) {
	sc := &stageCircuit{nl: netlist.New(), sections: opts.Sections, inputCap: t.Buffer.InputCap}
	nl := sc.nl
	nl.AddV("vsrc", "drv", netlist.Ground, netlist.Ramp{V0: 0, V1: 1, Start: opts.TimeStep, Rise: t.Buffer.OutSlew})
	nl.AddR("rdrv", "drv", "r", t.Buffer.DriveRes)
	ladder := func(k int, prefix, from, to string, seg netlist.SegmentRLC) error {
		sc.ladders[k] = ladderAt{len(nl.Resistors), len(nl.Capacitors), len(nl.Inductors)}
		_, err := nl.AddLadder(prefix, from, to, seg, opts.Sections)
		return err
	}
	if err := ladder(0, "tl", "r", "L", trunk); err != nil {
		return nil, err
	}
	if err := ladder(1, "tr", "r", "R", trunk); err != nil {
		return nil, err
	}
	splits := []string{"L", "L", "R", "R"}
	for i, s := range stageSinks {
		if err := ladder(2+i, "a"+s, splits[i], s, arm); err != nil {
			return nil, err
		}
		sc.loads[i] = nl.AddC("c"+s, s, netlist.Ground, t.Buffer.InputCap*loads[i])
	}
	var err error
	sc.c, err = sim.Compile(nl)
	return sc, err
}

// set writes a stage's trunk, arm and sink-load values over the
// circuit's.
func (sc *stageCircuit) set(trunk, arm netlist.SegmentRLC, loads [4]float64) {
	for k, at := range sc.ladders {
		seg := arm
		if k < 2 {
			seg = trunk
		}
		sc.nl.SetLadder(at.r, at.c, at.l, seg, sc.sections)
	}
	for i, k := range sc.loads {
		sc.nl.Capacitors[k].C = sc.inputCap * loads[i]
	}
}

// simulateStage runs one buffer stage's transient: the driver at the
// H centre, two trunk ladders, four arm ladders, four sink loads. It
// returns the four sink 50 % arrival times measured from the stage's
// launch. The transient stops at the last sink's first 50 % crossing
// (sim.CrossingsCtx), so a stage costs the steps up to its slowest
// sink rather than the full horizon, with the same arrivals bit for
// bit. scale multiplies the extracted R/C/L of every wire in the
// stage; loads multiplies the four sink capacitances (1s for an
// internal stage, whose sinks are the next level's buffer inputs).
//
// The stage netlist is compiled once per topology in an analysis and
// kept in the walker; a stage of a known topology only rewrites its
// element values.
func (w *walker) simulateStage(ctx context.Context, levelIdx int, stageID int64, scale [3]float64, loads [4]float64) ([4]float64, error) {
	t, opts := w.tree, w.opts
	var delays [4]float64
	ctx, sp := obs.StartCtx(ctx, "clocktree.stage")
	defer sp.End()
	sp.SetAttr("level", levelIdx)
	sp.SetAttr("stage", stageID)
	treeStages.Inc()
	lv := t.Levels[levelIdx]

	extract := func(length float64) (netlist.SegmentRLC, error) {
		s := lv.Segment
		s.Length = length
		var rlc netlist.SegmentRLC
		var err error
		if opts.WithL {
			rlc, err = t.Ext.SegmentRLCCtx(ctx, s)
		} else {
			rlc, err = t.Ext.SegmentRCOnlyCtx(ctx, s)
		}
		if err != nil {
			return rlc, err
		}
		rlc.R *= scale[0]
		rlc.C *= scale[1]
		rlc.L *= scale[2]
		return rlc, nil
	}
	trunk, err := extract(lv.TrunkLen)
	if err != nil {
		return delays, err
	}
	arm, err := extract(lv.ArmLen)
	if err != nil {
		return delays, err
	}
	// A bad scale fails here, as building the ladders would.
	if err := trunk.Validate(); err != nil {
		return delays, err
	}
	if err := arm.Validate(); err != nil {
		return delays, err
	}
	stageErr := func(err error) error {
		var nc *sim.NoCrossingError
		if errors.As(err, &nc) {
			return fmt.Errorf("clocktree: stage %d sink %s never switches (horizon too short?): %w", stageID, nc.Probe, err)
		}
		return fmt.Errorf("clocktree: stage %d (level %d): %w", stageID, levelIdx, err)
	}
	_, trunkL, _, _ := trunk.Section(opts.Sections)
	_, armL, _, _ := arm.Section(opts.Sections)
	topo := stageTopo{trunkL: trunkL > 0, armL: armL > 0}
	sc := w.circuits[topo]
	if sc == nil {
		if sc, err = t.newStageCircuit(opts, trunk, arm, loads); err != nil {
			return delays, stageErr(err)
		}
		if w.circuits == nil {
			w.circuits = make(map[stageTopo]*stageCircuit)
		}
		w.circuits[topo] = sc
	} else {
		sc.set(trunk, arm, loads)
	}
	times, err := sc.c.CrossingsCtx(ctx, opts.TimeStep, opts.Horizon, stageSinks, 0.5, true)
	if err != nil {
		return delays, stageErr(err)
	}
	for i, d := range times {
		// Remove the launch offset (the source starts one time step in).
		delays[i] = d - opts.TimeStep
	}
	return delays, nil
}

// Arrivals simulates the full tree and returns the clock arrival time
// at every leaf (4^levels leaves, indexed in H-order), including
// buffer intrinsic delays. Stage instance ids are assigned in
// level-order (BFS) starting at 0 for the root stage — stage k's
// children are 4k+1..4k+4 — and are stable for use with
// SimOptions.Scale. For trees too deep to materialise 4^levels
// float64s, use Analyze, which streams the same walk into bounded
// statistics.
func (t *Tree) Arrivals(opts SimOptions) ([]float64, error) {
	return t.ArrivalsCtx(context.Background(), opts)
}

// ArrivalsCtx is Arrivals honouring cancellation (each stage's
// transient polls ctx, and the walk itself polls between stages) with
// context-parented tracing: every clocktree.stage span — and the
// extraction and transient spans inside it — parents under the
// arrivals span. Identical stage instances share one simulated
// transient (see Analyze); results are bit-identical to the exact
// per-instance walk.
func (t *Tree) ArrivalsCtx(ctx context.Context, opts SimOptions) ([]float64, error) {
	_, arrivals, err := t.analyzeStream(ctx, opts, nil, true)
	return arrivals, err
}

// Analyze simulates the full tree as a streaming walk and returns
// bounded arrival statistics instead of the 4^levels arrivals slice:
// min/max (with leaf indices), sum/sum-of-squares, a fixed-size log
// histogram and an optional bounded sample reservoir. Identical stage
// instances — same level, scale perturbation and sink loads — are
// simulated once and memoized, so a nominal H-tree costs O(levels)
// transients instead of O(4^levels): the million-sink tree ROADMAP
// item 1 asks for is ~10 transients plus arithmetic.
func (t *Tree) Analyze(opts SimOptions) (*ArrivalStats, error) {
	return t.AnalyzeCtx(context.Background(), opts, nil)
}

// AnalyzeCtx is Analyze honouring cancellation and, when ck is
// non-nil, durably checkpointing the walk so a crash, OOM kill or
// SIGKILL resumes instead of restarting — see Checkpoint.
func (t *Tree) AnalyzeCtx(ctx context.Context, opts SimOptions, ck *Checkpoint) (*ArrivalStats, error) {
	stats, _, err := t.analyzeStream(ctx, opts, ck, false)
	return stats, err
}

// SkewReport names the leaves that set a tree's skew, so a
// large-tree run can point at the offending sink paths instead of
// reporting a bare number.
type SkewReport struct {
	// Skew is max − min arrival.
	Skew float64
	// MinArrival/MaxArrival are the extreme arrival times in seconds.
	MinArrival, MaxArrival float64
	// MinLeaf/MaxLeaf are the H-order indices of the earliest and
	// latest leaves (first occurrence on ties, matching sim.Skew).
	MinLeaf, MaxLeaf int64
	// Leaves is the leaf count the report covers.
	Leaves int64
}

// Skew runs the tree and reduces to the skew (max − min arrival).
func (t *Tree) Skew(opts SimOptions) (float64, error) {
	rep, err := t.SkewReport(opts)
	if err != nil {
		return 0, err
	}
	return rep.Skew, nil
}

// SkewReport runs the tree (streaming; no full arrivals slice) and
// returns the skew together with the extreme arrivals and the leaf
// indices that set them.
func (t *Tree) SkewReport(opts SimOptions) (SkewReport, error) {
	return t.SkewReportCtx(context.Background(), opts)
}

// SkewReportCtx is SkewReport honouring cancellation.
func (t *Tree) SkewReportCtx(ctx context.Context, opts SimOptions) (SkewReport, error) {
	stats, err := t.AnalyzeCtx(ctx, opts, nil)
	if err != nil {
		return SkewReport{}, err
	}
	return stats.SkewReport(), nil
}
