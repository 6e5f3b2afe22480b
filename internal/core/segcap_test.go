package core

// SegmentCap against the path it replaced: the heap block of Block and
// the signal trace's element of capmodel.BlockCaps. It must give that
// value bit for bit, fail with the same errors, and allocate nothing;
// a whole batch then allocates a bounded number of times.

import (
	"context"
	"math"
	"math/rand"
	"runtime"
	"runtime/debug"
	"testing"

	"clockrlc/internal/capmodel"
	"clockrlc/internal/check"
	"clockrlc/internal/fault"
	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

// sameCapAsBlockCaps fails t unless SegmentCap(s) equals the BlockCaps
// path bit for bit, or both fail with the same error text. It reports
// whether SegmentCap failed.
func sameCapAsBlockCaps(t testing.TB, e *Extractor, s Segment) bool {
	t.Helper()
	got, err := e.SegmentCap(s)
	var want float64
	blk, werr := e.Block(s)
	if werr == nil {
		var caps []capmodel.TraceCaps
		if caps, werr = capmodel.BlockCaps(blk, e.Tech.CapHeight, e.Tech.EpsRel); werr == nil {
			want = caps[1].Total() * s.Length
		}
	}
	if (err == nil) != (werr == nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("SegmentCap(%+v): error %v, BlockCaps path %v", s, err, werr)
	}
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("SegmentCap(%+v) = %v, BlockCaps path %v (bitwise)", s, got, want)
	}
	return err != nil
}

var allShieldings = []geom.Shielding{geom.ShieldNone, geom.ShieldMicrostrip, geom.ShieldStripline}

// TestSegmentCapMatchesBlockCaps sweeps the DefaultAxes ranges
// (log-uniform, seeded) in every shielding, with the planes of the
// test technology and without them, where every shielded block fails
// its validation. Invalid segments, an unknown shielding and a gap
// lost to rounding must fail with the BlockCaps path's errors too.
func TestSegmentCapMatchesBlockCaps(t *testing.T) {
	ax := table.DefaultAxes()
	rng := rand.New(rand.NewSource(21))
	in := func(a []float64) float64 {
		lo, hi := a[0], a[len(a)-1]
		return lo * math.Pow(hi/lo, rng.Float64())
	}
	noPlanes := testTech()
	noPlanes.PlaneGap, noPlanes.PlaneThickness = 0, 0
	for _, tech := range []Technology{testTech(), noPlanes} {
		e := &Extractor{Tech: tech}
		for _, sh := range allShieldings {
			for k := 0; k < 200; k++ {
				s := Segment{Length: in(ax.Lengths), SignalWidth: in(ax.Widths),
					GroundWidth: in(ax.Widths), Spacing: in(ax.Spacings), Shielding: sh}
				failed := sameCapAsBlockCaps(t, e, s)
				if want := tech.PlaneThickness == 0 && sh != geom.ShieldNone; failed != want {
					t.Fatalf("%v with plane thickness %g: SegmentCap failed = %v, want %v", sh, tech.PlaneThickness, failed, want)
				}
			}
		}
		bad := []Segment{fig1Segment(), fig1Segment(), fig1Segment()}
		bad[0].Length = -1
		bad[1].Shielding = geom.Shielding(7)
		bad[2].SignalWidth, bad[2].GroundWidth, bad[2].Spacing = 1e-2, 1e-2, 1e-19
		for _, s := range bad {
			if !sameCapAsBlockCaps(t, e, s) {
				t.Fatalf("SegmentCap(%+v) succeeded, want an error", s)
			}
		}
	}
}

// TestSegmentCapAllocatesNothing: the block lives in SegmentCap's own
// storage, so no shielding allocates.
func TestSegmentCapAllocatesNothing(t *testing.T) {
	e := &Extractor{Tech: testTech()}
	for _, sh := range allShieldings {
		s := fig1Segment()
		s.Shielding = sh
		allocs := testing.AllocsPerRun(100, func() {
			if _, err := e.SegmentCap(s); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != 0 {
			t.Errorf("%v: SegmentCap allocates %v per call, want 0", sh, allocs)
		}
	}
}

// TestSegmentsRLCBatchAllocations: a 1,024-segment batch in two
// shielding groups allocates a number of times that does not grow
// with its segments: the results, the R/C workers and one packed
// query buffer, at a fixed GOMAXPROCS.
func TestSegmentsRLCBatchAllocations(t *testing.T) {
	// No collection during the measurement, so the pools stay warm.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	check.SetPolicy(check.Off)
	fault.Reset()
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone, geom.ShieldMicrostrip})
	segs := batchSegs(1024)
	for i := 1; i < len(segs); i += 2 {
		segs[i].Shielding = geom.ShieldMicrostrip
	}
	ctx := context.Background()
	if _, err := e.SegmentsRLCCtx(ctx, segs); err != nil { // warm the pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := e.SegmentsRLCCtx(ctx, segs); err != nil {
			t.Fatal(err)
		}
	})
	// Each shielding group makes one self and one mutual batch lookup,
	// which together may miss their pools as a one-segment composition's
	// do.
	if limit := 32 + 2*poolMissAllocs; allocs > float64(limit) {
		t.Errorf("a 1,024-segment batch allocates %v times, want at most %d", allocs, limit)
	}
}

// TestLastAxisPassesPerSegment: a loop composition's two self and two
// mutual lookups share their segment's length, so on pairwise-distinct
// lengths and widths a batch of n segments runs one self and one
// mutual last-axis pass per segment, 2n passes for 4n evaluations.
func TestLastAxisPassesPerSegment(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone, geom.ShieldMicrostrip})
	const n = 48
	segs := make([]Segment, n)
	for i := range segs {
		f := float64(i)
		segs[i] = Segment{
			Length:      units.Um(200 + 100*f),
			SignalWidth: units.Um(1 + f/10),
			GroundWidth: units.Um(6 + f/10),
			Spacing:     units.Um(1 + f/20),
			Shielding:   allShieldings[i%2],
		}
	}
	passes, evals := obs.GetCounter("spline.last_axis_passes"), obs.GetCounter("spline.evals")
	p0, e0 := passes.Value(), evals.Value()
	if _, err := e.LoopLBatch(segs); err != nil {
		t.Fatal(err)
	}
	if got := passes.Value() - p0; got != 2*n {
		t.Errorf("spline.last_axis_passes advanced by %d, want %d", got, 2*n)
	}
	if got := evals.Value() - e0; got != 4*n {
		t.Errorf("spline.evals advanced by %d, want %d", got, 4*n)
	}
}
