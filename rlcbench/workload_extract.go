package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/netlist"
	"clockrlc/internal/obs"
)

const (
	extractBatchSize = 1024
	// extractBatches distinct batches are generated before timing and
	// cycled; 32×1024 segments keep repeated geometries near zero.
	extractBatches = 32
	// extractChecks segments per run are re-extracted by the scalar path
	// and compared bit for bit.
	extractChecks = 64
)

// runExtractBatch times core.SegmentsRLCCtx on 1024-segment batches
// called by one closed-loop caller: the paper's fast path at a
// realistic batch size.
func runExtractBatch(ctx context.Context, e *env) (*outcome, error) {
	oc := newOutcome()
	r := newRand(e.seed)
	batches := make([][]core.Segment, extractBatches)
	for b := range batches {
		batches[b] = make([]core.Segment, extractBatchSize)
		for i := range batches[b] {
			batches[b][i] = randomSegment(r)
		}
	}
	tr := &tracer{}
	ext, err := inprocSetup(ctx, e, oc, tr, 5, bothShieldings)
	if err != nil {
		return nil, err
	}

	results := make([][]netlist.SegmentRLC, len(batches))
	loop := &opLoop{root: "bench.batch", window: e.seconds, traced: e.traced, tr: tr}
	before, p0 := readCounters(), sampleProc()
	err = loop.run(ctx, func(ctx context.Context, i int) error {
		b := i % len(batches)
		out, err := ext.SegmentsRLCCtx(ctx, batches[b])
		if err != nil {
			return err
		}
		results[b] = out
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
		oc.notef("CHECK FAILED: %d of %d batches returned an error", loop.failures, ops)
	}

	// Sampled segments of the timed results must equal the scalar path
	// bit for bit.
	for k := 0; k < extractChecks; k++ {
		b, i := r.IntN(min(ops, len(batches))), r.IntN(extractBatchSize)
		got := results[b]
		if got == nil {
			oc.check(false, "batch %d failed", b)
			continue
		}
		want, err := ext.SegmentRLCCtx(ctx, batches[b][i])
		oc.check(err == nil && sameRLC(got[i], want), "batch %d segment %d: vectorized %+v, scalar %+v (err %v)", b, i, got[i], want, err)
	}

	if e.traced {
		m := oc.metrics
		b := analyze(obs.BuildTrace(tr.events()), loop.root)
		m["core.self_pct"] = b.share("core.batch")
		m["table.lookup.self_pct"] = b.share("table.lookup")
		m["coverage.unattributed_frac"] = b.unattributed(loop.root)
		m["obs.trace_overhead_frac"] = loop.overhead()
		setLookupMetrics(m, b, delta, ops)
		m["core.loopl_batch.us_per_seg"], err = loopLBatchUsPerSeg(ctx, ext, batches)
		if err != nil {
			return nil, err
		}
		m["spline.distinct_query_frac"] = distinctQueryFrac(batches)
		setProcMetrics(m, p0, p1, ops)
		path, err := writeTrace(e.traceDir, "extract-batch", tr.events())
		if err != nil {
			return nil, err
		}
		oc.notef("trace: %s (%d traced of %d batches)", path, len(loop.tracedOp), ops)
		return oc, nil
	}

	loop.report(oc, extractBatchSize, fmt.Sprintf("one %d-segment batch", extractBatchSize))
	oc.notef("work_per_s = segments extracted per second")
	return oc, finishInproc(ctx, oc, ext, bothShieldings)
}

// finishInproc records peak RSS and the accuracy probe, which run
// after the timed window.
func finishInproc(ctx context.Context, oc *outcome, ext *core.Extractor, shs []geom.Shielding) error {
	rss, err := peakRSSMB(0)
	if err != nil {
		return err
	}
	oc.metrics["peak_rss_mb"] = rss
	probes := probeSet(shs)
	oc.metrics["loopl_err_pct_max"], err = loopLErrPctMax(ctx, ext, probes)
	if err != nil {
		return fmt.Errorf("accuracy probe: %w", err)
	}
	oc.notef("loopl_err_pct_max over %d fixed probe geometries", len(probes))
	return nil
}

// setLookupMetrics fills the lookup and composition metrics from a
// breakdown of traced operations and the counter deltas of all ops.
func setLookupMetrics(m map[string]float64, b breakdown, delta counters, ops int) {
	if b.lookupSegs > 0 {
		m["table.lookup.us_per_seg"] = b.total["table.lookup"].Seconds() * 1e6 / float64(b.lookupSegs)
	}
	m["table.lookup_clamped"] = float64(delta["table.lookup_clamped"])
	segsPerOp := float64(delta["core.segments_extracted"]) / float64(ops)
	m["core.segments_per_op"] = segsPerOp
	if segsPerOp > 0 {
		m["core.us_per_seg"] = b.perRoot("core.batch", "core.extract", "core.extract_rc") * 1e6 / segsPerOp
	}
}

// loopLBatchUsPerSeg times LoopLBatchCtx (lookup and composition only)
// once per batch and returns the median time per segment in µs.
func loopLBatchUsPerSeg(ctx context.Context, ext *core.Extractor, batches [][]core.Segment) (float64, error) {
	var per []float64
	for _, segs := range batches {
		t0 := time.Now()
		if _, err := ext.LoopLBatchCtx(ctx, segs); err != nil {
			return 0, err
		}
		per = append(per, time.Since(t0).Seconds()*1e6/float64(len(segs)))
	}
	return medianOf(per), nil
}

// distinctQueryFrac is the share of the table queries a batch lookup
// issues that are distinct within their batch call (per batch and
// shielding, self and mutual separately) — the work the spline's tuple
// dedup cannot save.
func distinctQueryFrac(batches [][]core.Segment) float64 {
	type key struct {
		sh   geom.Shielding
		self bool
		q    [4]float64
	}
	distinct, total := 0, 0
	for _, segs := range batches {
		seen := map[key]bool{}
		for _, s := range segs {
			sgg := 2*s.Spacing + s.SignalWidth
			for _, k := range []key{
				{s.Shielding, true, [4]float64{s.SignalWidth, s.Length}},
				{s.Shielding, true, [4]float64{s.GroundWidth, s.Length}},
				{s.Shielding, false, [4]float64{s.SignalWidth, s.GroundWidth, s.Spacing, s.Length}},
				{s.Shielding, false, [4]float64{s.GroundWidth, s.GroundWidth, sgg, s.Length}},
			} {
				if !seen[k] {
					seen[k] = true
					distinct++
				}
				total++
			}
		}
	}
	if total == 0 {
		return 0
	}
	return float64(distinct) / float64(total)
}

func sameRLC(a, b netlist.SegmentRLC) bool {
	return math.Float64bits(a.R) == math.Float64bits(b.R) &&
		math.Float64bits(a.L) == math.Float64bits(b.L) &&
		math.Float64bits(a.C) == math.Float64bits(b.C)
}
