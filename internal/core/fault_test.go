package core

// Robustness tests for the extraction layer: field-named input
// validation, batch cancellation, and panic isolation across the
// worker pool.

import (
	"context"
	"errors"
	"math"
	"strings"
	"sync"
	"testing"
	"time"

	"clockrlc/internal/fault"
	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

func TestSegmentValidationNamesTheField(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Segment)
		want   string
	}{
		{"zero length", func(s *Segment) { s.Length = 0 }, "Length"},
		{"negative signal width", func(s *Segment) { s.SignalWidth = -1e-6 }, "SignalWidth"},
		{"NaN spacing", func(s *Segment) { s.Spacing = math.NaN() }, "Spacing"},
		{"Inf ground width", func(s *Segment) { s.GroundWidth = math.Inf(1) }, "GroundWidth"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seg := fig1Segment()
			tc.mutate(&seg)
			err := seg.Validate()
			if !errors.Is(err, ErrBadGeometry) {
				t.Fatalf("want ErrBadGeometry, got %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not name the offending field %q", err, tc.want)
			}
		})
	}
}

// A gap many orders of magnitude below the widths rounds away once
// the traces are placed; the block gate refuses it as bad geometry
// instead of handing touching traces to the capacitance model.
func TestBlockRejectsGapLostToRounding(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone})
	seg := fig1Segment()
	seg.SignalWidth = 1e294
	if err := seg.Validate(); err != nil {
		t.Fatalf("the segment itself is valid: %v", err)
	}
	_, err := e.Block(seg)
	if !errors.Is(err, ErrBadGeometry) || !strings.Contains(err.Error(), "spacing") {
		t.Fatalf("want ErrBadGeometry naming the spacing, got %v", err)
	}
	if _, err := e.SegmentRLC(seg); !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("SegmentRLC: want ErrBadGeometry, got %v", err)
	}
}

// An extraction that leaves the physical range for a valid geometry
// unwraps to ErrUnphysical on the scalar and the batch path, with the
// historical message text. The lookups run under the configured clamp
// policy, which the clamp counter shows.
func TestUnphysicalExtractionUnwraps(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone})
	e.Configure(WithLookupPolicy(table.LookupClamp))
	clamps := obs.GetCounter("table.lookup_oob_clamps")
	c0 := clamps.Value()
	seg := Segment{Length: 1e-306, SignalWidth: 1e-306, GroundWidth: 1e-306, Spacing: 1e-306}
	_, err := e.SegmentRLC(seg)
	if !errors.Is(err, ErrUnphysical) || !strings.HasPrefix(err.Error(), "core: extracted values unphysical: netlist:") {
		t.Fatalf("scalar: want ErrUnphysical, got %v", err)
	}
	_, err = e.SegmentsRLC([]Segment{fig1Segment(), seg})
	if !errors.Is(err, ErrUnphysical) || !strings.HasPrefix(err.Error(), "core: batch segment 1: core: extracted values unphysical: netlist:") {
		t.Fatalf("batch: want ErrUnphysical naming segment 1, got %v", err)
	}
	if clamps.Value() == c0 {
		t.Error("table.lookup_oob_clamps did not advance under the configured clamp policy")
	}
}

func TestTechnologyValidationNamesTheField(t *testing.T) {
	tech := testTech()
	tech.Rho = math.NaN()
	err := tech.Validate()
	if !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("want ErrBadGeometry, got %v", err)
	}
	if !strings.Contains(err.Error(), "Rho") {
		t.Fatalf("error %q does not name Rho", err)
	}
}

func TestBatchCancellationStopsNewClaims(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone})
	segs := make([]Segment, 64)
	for i := range segs {
		segs[i] = fig1Segment()
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	t0 := time.Now()
	_, err := e.SegmentsRLCCtx(ctx, segs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if took := time.Since(t0); took > time.Second {
		t.Fatalf("cancelled batch returned after %v", took)
	}
}

func TestBatchPanicIsolatedToItsSegment(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone})
	segs := make([]Segment, 8)
	for i := range segs {
		segs[i] = fig1Segment()
	}
	// The batch path runs on the same pool as the sweep; a panicking
	// cell must surface as a *table.CellPanic naming the segment index
	// while the other cells complete.
	err := table.ParallelForCtx(context.Background(), len(segs), 4, func(k int) error {
		if k == 3 {
			panic("segment blew up")
		}
		_, err := e.SegmentRLC(segs[k])
		return err
	})
	var cp *table.CellPanic
	if !errors.As(err, &cp) {
		t.Fatalf("want *table.CellPanic, got %v", err)
	}
	if cp.Cell != 3 {
		t.Fatalf("panic attributed to cell %d, want 3", cp.Cell)
	}
}

func TestNewExtractorCtxHonoursPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := NewExtractorCtx(ctx, testTech(), fsig, testAxes(), []geom.Shielding{geom.ShieldNone})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestBatchRejectsInvalidSegmentWithIndex(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone})
	segs := []Segment{fig1Segment(), fig1Segment(), fig1Segment()}
	segs[1].SignalWidth = -units.Um(1)
	_, err := e.SegmentsRLC(segs)
	if !errors.Is(err, ErrBadGeometry) {
		t.Fatalf("want ErrBadGeometry, got %v", err)
	}
	if !strings.Contains(err.Error(), "segment 1") {
		t.Fatalf("error %q does not name the failing segment index", err)
	}
}

// Two extractors that miss one cache key at the same time share the
// leader's table set. Each must still hold its own lookup policy: the
// policy goes on a header copy, not into the shared set, where the
// two writes would race and the last one win for both.
func TestCoalescedExtractorsKeepTheirLookupPolicy(t *testing.T) {
	cache, err := table.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	axes := table.Axes{
		Widths:   table.LogAxis(units.Um(1), units.Um(4), 2),
		Spacings: table.LogAxis(units.Um(1), units.Um(2), 2),
		Lengths:  table.LogAxis(units.Um(100), units.Um(1000), 3),
	}
	// Slow solves keep the leader's sweep running while the other
	// extractor misses the same key and joins its flight.
	fault.Register(fault.NewInjector(1, fault.Rule{
		Point: fault.SolverCall, Mode: fault.ModeLatency, Prob: 1, Delay: 20 * time.Millisecond,
	}))
	defer fault.Reset()
	coalesced := obs.GetCounter("table.cache_coalesced")
	c0 := coalesced.Value()

	policies := []table.LookupPolicy{table.LookupError, table.LookupExtrapolate}
	exts := make([]*Extractor, len(policies))
	errs := make([]error, len(policies))
	start := make(chan struct{})
	var wg sync.WaitGroup
	for i, p := range policies {
		opts := []Option{WithTableCache(cache)}
		if p != table.LookupExtrapolate { // the other extractor keeps the default
			opts = append(opts, WithLookupPolicy(p))
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			exts[i], errs[i] = NewExtractorCtx(context.Background(), testTech(), fsig, axes,
				[]geom.Shielding{geom.ShieldNone}, opts...)
		}()
	}
	close(start)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("extractor %d: %v", i, err)
		}
	}
	if got := coalesced.Value() - c0; got != 1 {
		t.Fatalf("table.cache_coalesced += %d, want 1: the builds did not share one flight", got)
	}

	outside := Segment{
		Length: units.Um(1500), SignalWidth: units.Um(2), GroundWidth: units.Um(2),
		Spacing: units.Um(1.5), Shielding: geom.ShieldNone,
	}
	for i, p := range policies {
		set, err := exts[i].Tables(geom.ShieldNone)
		if err != nil {
			t.Fatal(err)
		}
		if set.Lookup != p {
			t.Errorf("extractor %d: set policy %v, want its own %v", i, set.Lookup, p)
		}
		_, err = exts[i].LoopL(outside)
		if got, want := errors.Is(err, table.ErrOutOfRange), p == table.LookupError; got != want {
			t.Errorf("extractor %d (%v): LoopL outside the axes gave %v; ErrOutOfRange %v, want %v", i, p, err, got, want)
		}
	}
}
