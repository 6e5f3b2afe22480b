package core

// Vectorized extraction. Extractor.SegmentsRLC feeds whole clocktrees
// through the table layer's batch lookups (table.Set.SelfLBatch /
// MutualLBatch): segments are grouped by shielding configuration, the
// four lookups of every loop composition are packed into two batch
// calls per group, and one spline contraction pass answers them all —
// deduping repeated geometries, which clock trees are made of.
// loopLBatchInto is the only loop composition: LoopL is a one-segment
// call of it.

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"time"

	"clockrlc/internal/geom"
	"clockrlc/internal/netlist"
	"clockrlc/internal/obs"
	"clockrlc/internal/table"
)

// Batch accounting: runs, segments extracted through the batch path,
// and accumulated wall time (throughput = batch_segments /
// batch_ns·1e9).
var (
	batchRuns     = obs.GetCounter("core.batch_runs")
	batchSegments = obs.GetCounter("core.batch_segments")
	batchNs       = obs.GetCounter("core.batch_ns")
)

// SegmentsRLC extracts a batch of segments through the vectorized
// path: R and C per segment on a GOMAXPROCS-wide worker pool, then
// every loop inductance through the table layer's batch lookups (one
// spline contraction pass per shielding group, repeated geometries
// deduped). Results are bit-identical to a serial loop over
// SegmentRLC, in input order; the first failing segment stops the
// batch, identified by its index. Progress is observable through the
// core.batch_* counters.
func (e *Extractor) SegmentsRLC(segs []Segment) ([]netlist.SegmentRLC, error) {
	return e.SegmentsRLCCtx(context.Background(), segs)
}

// LoopLBatch composes the loop inductance of every segment through the
// batch lookup path, returning henries in input order. Values are
// bit-identical to calling LoopL per segment; the first failing
// segment (in input order within its shielding group) stops the batch
// with an error naming it.
func (e *Extractor) LoopLBatch(segs []Segment) ([]float64, error) {
	return e.LoopLBatchCtx(context.Background(), segs)
}

// LoopLBatchCtx is LoopLBatch with context-parented tracing. The
// context carries tracing lineage only; lookups are pure reads and are
// not cancelled.
func (e *Extractor) LoopLBatchCtx(ctx context.Context, segs []Segment) ([]float64, error) {
	for i, s := range segs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("core: segment %d: %w", i, err)
		}
	}
	out := make([]float64, len(segs))
	if si, err := e.loopLBatchInto(ctx, segs, out); err != nil {
		return nil, fmt.Errorf("core: segment %d: %w", si, err)
	}
	return out, nil
}

// loopLBatchInto composes loop inductances for pre-validated segments
// into out (len(out) == len(segs)). On failure it returns the index of
// the offending segment and that segment's own error, without the
// *table.BatchError.
func (e *Extractor) loopLBatchInto(ctx context.Context, segs []Segment, out []float64) (int, error) {
	if len(segs) == 0 {
		return 0, nil
	}
	_, sp := obs.StartCtx(ctx, "table.lookup")
	defer sp.End()
	sp.SetAttr("batch", len(segs))
	loopCompositions.Add(int64(len(segs)))

	// One group per shielding configuration, in order of first
	// appearance: each shares one table set and batches its lookups
	// together. Every set is resolved before any lookup runs.
	var shBuf [3]geom.Shielding
	shs := shBuf[:0]
	for i, s := range segs {
		if !slices.Contains(shs, s.Shielding) {
			if _, err := e.Tables(s.Shielding); err != nil {
				return i, err
			}
			shs = append(shs, s.Shielding)
		}
	}

	// Two self queries per segment — (SignalWidth, Length) then
	// (GroundWidth, Length) — and two mutual queries — signal↔ground at
	// Spacing, then ground↔ground across the signal trace — in input
	// order. Each group packs its queries into the front of one buffer.
	n := 2 * len(segs)
	buf := make([]float64, 8*n)
	sw, sl, selfOut := buf[:n], buf[n:2*n], buf[2*n:3*n]
	mw1, mw2, msp, mln, mutOut := buf[3*n:4*n], buf[4*n:5*n], buf[5*n:6*n], buf[6*n:7*n], buf[7*n:]
	eng := e.checkEngine()
	armed := eng.Armed()
	for _, sh := range shs {
		q := 0
		for _, s := range segs {
			if s.Shielding != sh {
				continue
			}
			sw[q], sl[q] = s.SignalWidth, s.Length
			sw[q+1], sl[q+1] = s.GroundWidth, s.Length
			mw1[q], mw2[q], msp[q], mln[q] = s.SignalWidth, s.GroundWidth, s.Spacing, s.Length
			// Ground-to-ground spacing across the signal trace.
			sgg := 2*s.Spacing + s.SignalWidth
			mw1[q+1], mw2[q+1], msp[q+1], mln[q+1] = s.GroundWidth, s.GroundWidth, sgg, s.Length
			q += 2
		}
		set := e.tables[sh]
		if err := set.SelfLBatch(sw[:q], sl[:q], selfOut[:q]); err != nil {
			return querySegment(segs, sh, err)
		}
		if err := set.MutualLBatch(mw1[:q], mw2[:q], msp[:q], mln[:q], mutOut[:q]); err != nil {
			return querySegment(segs, sh, err)
		}
		q = 0
		for i, s := range segs {
			if s.Shielding != sh {
				continue
			}
			ls, lg, msg, mgg := selfOut[q], selfOut[q+1], mutOut[q], mutOut[q+1]
			q += 2
			var lloop float64
			if sh == geom.ShieldNone {
				lloop = ls + (lg+mgg)/2 - 2*msg
			} else {
				lloop = ls - 2*msg*msg/(lg+mgg)
			}
			if armed {
				if err := checkLoopComposition(eng, s, ls, lg, msg, mgg, lloop); err != nil {
					return i, err
				}
			}
			out[i] = lloop
		}
	}
	return 0, nil
}

// querySegment maps a failed batch lookup of the sh group back to the
// segment that issued the failing query (two queries per segment) and
// unwraps the *table.BatchError to that query's own error. An error
// that names no query is attributed to the group's first segment.
func querySegment(segs []Segment, sh geom.Shielding, err error) (int, error) {
	k := 0
	if be, ok := err.(*table.BatchError); ok {
		k, err = be.Index/2, be.Err
	}
	for i, s := range segs {
		if s.Shielding == sh {
			if k == 0 {
				return i, err
			}
			k--
		}
	}
	return 0, err
}

// SegmentsRLCCtx is SegmentsRLC honouring cancellation through the
// R/C worker phase; the lookup phase is pure reads and runs to
// completion.
func (e *Extractor) SegmentsRLCCtx(ctx context.Context, segs []Segment) ([]netlist.SegmentRLC, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	ctx, sp := obs.StartCtx(ctx, "core.batch")
	sp.SetAttr("segments", len(segs))
	sp.SetAttr("mode", "vectorized")
	defer sp.End()
	t0 := time.Now()
	defer func() {
		batchRuns.Inc()
		batchNs.Add(time.Since(t0).Nanoseconds())
	}()
	out := make([]netlist.SegmentRLC, len(segs))
	if len(segs) == 0 {
		return out, nil
	}
	// Gate every segment's geometry up front, in input order, so the
	// first invalid segment is named deterministically.
	for i, s := range segs {
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("core: batch segment %d: %w", i, err)
		}
	}
	workers := runtime.GOMAXPROCS(0)
	sp.SetAttr("workers", workers)
	err := table.ParallelForCtx(ctx, len(segs), workers, func(k int) error {
		rc, err := e.segmentRC(segs[k])
		if err != nil {
			return fmt.Errorf("core: batch segment %d: %w", k, err)
		}
		out[k] = rc
		return nil
	})
	if err != nil {
		return nil, err
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	ls := make([]float64, len(segs))
	if si, lerr := e.loopLBatchInto(ctx, segs, ls); lerr != nil {
		return nil, fmt.Errorf("core: batch segment %d: %w", si, lerr)
	}
	for i := range out {
		out[i].L = ls[i]
		if err := out[i].Validate(); err != nil {
			return nil, fmt.Errorf("core: batch segment %d: %w: %w", i, ErrUnphysical, err)
		}
	}
	segmentsExtracted.Add(int64(len(segs)))
	batchSegments.Add(int64(len(segs)))
	return out, nil
}
