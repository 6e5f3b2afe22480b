package table

// Lookups. SelfLBatch and MutualLBatch are the one implementation of a
// table lookup; SelfL and MutualL are one-query calls of them. Each
// query is validated, fault-checked and classified under the lookup
// policy in input order, one spline.EvalBatch contraction pass answers
// the whole batch (deduping repeated geometries; clock trees repeat a
// handful), armed checks then test every value, and each counter
// advances by one atomic add per batch.

import (
	"fmt"
	"sync"

	"clockrlc/internal/check"
	"clockrlc/internal/fault"
)

// BatchError reports which query of a batch lookup failed. It unwraps
// to the underlying per-query error (e.g. one unwrapping further to
// ErrOutOfRange under LookupError policy).
type BatchError struct {
	// Index is the query's position in the batch's input order.
	Index int
	Err   error
}

func (e *BatchError) Error() string {
	return fmt.Sprintf("table: batch query %d: %v", e.Index, e.Err)
}

func (e *BatchError) Unwrap() error { return e.Err }

// queryErr is the error a one-query lookup returns: the failing
// query's own error, without the *BatchError that names its index.
func queryErr(err error) error {
	if be, ok := err.(*BatchError); ok {
		return be.Err
	}
	return err
}

// coordPool recycles the packed coordinate buffers the batch lookups
// assemble for spline.Grid.EvalBatch.
var coordPool = sync.Pool{New: func() any { return new([]float64) }}

func getCoordBuf(n int) (*[]float64, []float64) {
	p := coordPool.Get().(*[]float64)
	buf := *p
	if cap(buf) < n {
		buf = make([]float64, n)
		*p = buf
	}
	return p, buf[:n]
}

// lookupCounts accumulates per-query classification so the process
// counters advance once per batch, not once per query.
type lookupCounts struct {
	hits, clamped, oobExtrapolated, oobClamps, oobErrors int64
}

func (lc *lookupCounts) flush() {
	if lc.hits != 0 {
		lookupHits.Add(lc.hits)
	}
	if lc.clamped != 0 {
		lookupClamped.Add(lc.clamped)
	}
	if lc.oobExtrapolated != 0 {
		lookupOOBExtrapolated.Add(lc.oobExtrapolated)
	}
	if lc.oobClamps != 0 {
		lookupOOBClamps.Add(lc.oobClamps)
	}
	if lc.oobErrors != 0 {
		lookupOOBErrors.Add(lc.oobErrors)
	}
}

// SelfLBatch looks up the self inductance for n = len(out) traces,
// query i taking width ws[i] and length ls[i], writing henries to
// out[i]: each value is s.Self.Eval at the query's post-policy
// coordinates, bit for bit. The first failing query (in input order)
// stops the batch with a *BatchError naming it; queries before it have
// been counted, none of out is then valid. See SelfL for the lookup
// policy and the armed check.
func (s *Set) SelfLBatch(ws, ls, out []float64) error {
	n := len(out)
	if len(ws) != n || len(ls) != n {
		return fmt.Errorf("table: SelfLBatch needs equal-length slices (w=%d, l=%d, out=%d)", len(ws), len(ls), n)
	}
	if n == 0 {
		return nil
	}
	var lc lookupCounts
	defer lc.flush()
	bp, coords := getCoordBuf(2 * n)
	defer coordPool.Put(bp)
	for i := 0; i < n; i++ {
		w, l := ws[i], ls[i]
		if !positive(w) || !positive(l) {
			return &BatchError{Index: i, Err: fmt.Errorf("table: SelfL arguments must be positive (w=%g, l=%g)", w, l)}
		}
		if err := fault.Check(fault.SplineLookup); err != nil {
			return &BatchError{Index: i, Err: err}
		}
		ok := inRange(s.Axes.Widths, w) && inRange(s.Axes.Lengths, l)
		if ok {
			lc.hits++
		} else {
			lc.clamped++
			switch s.Lookup {
			case LookupError:
				lc.oobErrors++
				return &BatchError{Index: i, Err: fmt.Errorf("table: SelfL(w=%g, l=%g) outside table %q axes (w ∈ [%g, %g], l ∈ [%g, %g]): %w",
					w, l, s.Config.Name, s.Axes.Widths[0], s.Axes.Widths[len(s.Axes.Widths)-1],
					s.Axes.Lengths[0], s.Axes.Lengths[len(s.Axes.Lengths)-1], ErrOutOfRange)}
			case LookupClamp:
				lc.oobClamps++
				w, l = clampTo(s.Axes.Widths, w), clampTo(s.Axes.Lengths, l)
			default:
				lc.oobExtrapolated++
			}
		}
		coords[2*i], coords[2*i+1] = w, l
	}
	if err := s.Self.EvalBatch(coords, out); err != nil {
		return err
	}
	if e := check.Active(); e.Armed() {
		for i, v := range out {
			if !finite(v) || v <= 0 {
				if err := e.Report(&check.Violation{
					Stage: check.StageLookup, Invariant: "self inductance finite and positive",
					Subject: fmt.Sprintf("table %q", s.Config.Name),
					// coords holds the post-policy (possibly clamped)
					// coordinates.
					Cell:   fmt.Sprintf("SelfL(w=%g, l=%g)", coords[2*i], coords[2*i+1]),
					Detail: fmt.Sprintf("L = %g", v),
				}); err != nil {
					return &BatchError{Index: i, Err: err}
				}
			}
		}
	}
	return nil
}

// MutualLBatch looks up the mutual inductance for n = len(out) trace
// pairs, query i taking widths w1s[i] and w2s[i], edge-to-edge spacing
// sps[i] and common length ls[i]; see SelfLBatch for the batch
// contract and MutualL for the armed check.
func (s *Set) MutualLBatch(w1s, w2s, sps, ls, out []float64) error {
	n := len(out)
	if len(w1s) != n || len(w2s) != n || len(sps) != n || len(ls) != n {
		return fmt.Errorf("table: MutualLBatch needs equal-length slices (w1=%d, w2=%d, s=%d, l=%d, out=%d)",
			len(w1s), len(w2s), len(sps), len(ls), n)
	}
	if n == 0 {
		return nil
	}
	var lc lookupCounts
	defer lc.flush()
	bp, coords := getCoordBuf(4 * n)
	defer coordPool.Put(bp)
	for i := 0; i < n; i++ {
		w1, w2, sp, l := w1s[i], w2s[i], sps[i], ls[i]
		if !positive(w1) || !positive(w2) || !positive(sp) || !positive(l) {
			return &BatchError{Index: i, Err: fmt.Errorf("table: MutualL arguments must be positive (w1=%g, w2=%g, s=%g, l=%g)", w1, w2, sp, l)}
		}
		if err := fault.Check(fault.SplineLookup); err != nil {
			return &BatchError{Index: i, Err: err}
		}
		ok := inRange(s.Axes.Widths, w1) && inRange(s.Axes.Widths, w2) &&
			inRange(s.Axes.Spacings, sp) && inRange(s.Axes.Lengths, l)
		if ok {
			lc.hits++
		} else {
			lc.clamped++
			switch s.Lookup {
			case LookupError:
				lc.oobErrors++
				return &BatchError{Index: i, Err: fmt.Errorf("table: MutualL(w1=%g, w2=%g, s=%g, l=%g) outside table %q axes (w ∈ [%g, %g], s ∈ [%g, %g], l ∈ [%g, %g]): %w",
					w1, w2, sp, l, s.Config.Name,
					s.Axes.Widths[0], s.Axes.Widths[len(s.Axes.Widths)-1],
					s.Axes.Spacings[0], s.Axes.Spacings[len(s.Axes.Spacings)-1],
					s.Axes.Lengths[0], s.Axes.Lengths[len(s.Axes.Lengths)-1], ErrOutOfRange)}
			case LookupClamp:
				lc.oobClamps++
				w1, w2 = clampTo(s.Axes.Widths, w1), clampTo(s.Axes.Widths, w2)
				sp, l = clampTo(s.Axes.Spacings, sp), clampTo(s.Axes.Lengths, l)
			default:
				lc.oobExtrapolated++
			}
		}
		coords[4*i], coords[4*i+1], coords[4*i+2], coords[4*i+3] = w1, w2, sp, l
	}
	if err := s.Mutual.EvalBatch(coords, out); err != nil {
		return err
	}
	if e := check.Active(); e.Armed() {
		for i, v := range out {
			if !finite(v) || v < 0 {
				if err := e.Report(&check.Violation{
					Stage: check.StageLookup, Invariant: "mutual inductance finite and non-negative",
					Subject: fmt.Sprintf("table %q", s.Config.Name),
					Cell: fmt.Sprintf("MutualL(w1=%g, w2=%g, s=%g, l=%g)",
						coords[4*i], coords[4*i+1], coords[4*i+2], coords[4*i+3]),
					Detail: fmt.Sprintf("M = %g", v),
				}); err != nil {
					return &BatchError{Index: i, Err: err}
				}
			}
		}
	}
	return nil
}
