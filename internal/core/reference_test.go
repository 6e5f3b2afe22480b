package core

// The one lookup path checked from outside: loop compositions against
// an oracle that bypasses it (four spline.Grid.Eval calls at the
// post-policy coordinates and the paper's two formulas, written out
// here), the lookup policy set through Configure, and what a
// one-segment call allocates.

import (
	"errors"
	"math"
	"runtime/debug"
	"testing"

	"clockrlc/internal/check"
	"clockrlc/internal/fault"
	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
	"clockrlc/internal/spline"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

// referenceLoopL composes the segment's loop inductance without the
// batch path: the set's lookup policy applied to each coordinate by
// hand (only LookupClamp moves one), one Grid.Eval per table entry.
func referenceLoopL(t *testing.T, e *Extractor, s Segment) float64 {
	t.Helper()
	set, err := e.Tables(s.Shielding)
	if err != nil {
		t.Fatal(err)
	}
	ax := set.Axes
	eval := func(g *spline.Grid, axes [][]float64, x ...float64) float64 {
		if set.Lookup == table.LookupClamp {
			for d, a := range axes {
				x[d] = math.Max(a[0], math.Min(x[d], a[len(a)-1]))
			}
		}
		v, err := g.Eval(x...)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	self := [][]float64{ax.Widths, ax.Lengths}
	mutual := [][]float64{ax.Widths, ax.Widths, ax.Spacings, ax.Lengths}
	ls := eval(set.Self, self, s.SignalWidth, s.Length)
	lg := eval(set.Self, self, s.GroundWidth, s.Length)
	msg := eval(set.Mutual, mutual, s.SignalWidth, s.GroundWidth, s.Spacing, s.Length)
	// Ground-to-ground spacing across the signal trace.
	mgg := eval(set.Mutual, mutual, s.GroundWidth, s.GroundWidth, 2*s.Spacing+s.SignalWidth, s.Length)
	if s.Shielding == geom.ShieldNone {
		return ls + (lg+mgg)/2 - 2*msg
	}
	return ls - 2*msg*msg/(lg+mgg)
}

// referenceSegs are in-range and out-of-range geometries in both
// shieldings: some segment leaves each axis of the test tables
// (widths 1–12 µm, spacings 0.8–22 µm, lengths 100–6000 µm) below its
// first knot and some above its last.
func referenceSegs() []Segment {
	var segs []Segment
	for _, sh := range []geom.Shielding{geom.ShieldNone, geom.ShieldMicrostrip} {
		for _, g := range [][4]float64{ // length, signal width, ground width, spacing (µm)
			{6000, 10, 5, 1},  // in range
			{900, 3, 2, 1.5},  // in range
			{7000, 3, 2, 1.5}, // long
			{80, 3, 2, 1.5},   // short
			{900, 14, 2, 1.5}, // wide signal
			{900, 3, 0.9, 1},  // narrow ground
			{900, 3, 2, 0.7},  // tight gap
			{900, 8, 4, 12},   // sgg = 32 µm beyond the spacing axis
		} {
			segs = append(segs, Segment{
				Length: units.Um(g[0]), SignalWidth: units.Um(g[1]), GroundWidth: units.Um(g[2]),
				Spacing: units.Um(g[3]), Shielding: sh,
			})
		}
	}
	return segs
}

// TestLoopLMatchesReference: LoopL, LoopLBatch and SegmentsRLC all
// compose bit for bit what referenceLoopL does, under extrapolate and
// clamp, in range and out of it, in both shieldings.
func TestLoopLMatchesReference(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone, geom.ShieldMicrostrip})
	segs := referenceSegs()
	for _, policy := range []table.LookupPolicy{table.LookupExtrapolate, table.LookupClamp} {
		e.Configure(WithLookupPolicy(policy))
		batch, err := e.LoopLBatch(segs)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		rlc, err := e.SegmentsRLC(segs)
		if err != nil {
			t.Fatalf("%v: %v", policy, err)
		}
		for i, s := range segs {
			want := referenceLoopL(t, e, s)
			got, err := e.LoopL(s)
			if err != nil {
				t.Fatalf("%v segment %d: %v", policy, i, err)
			}
			for _, c := range []struct {
				path string
				v    float64
			}{{"LoopL", got}, {"LoopLBatch", batch[i]}, {"SegmentsRLC", rlc[i].L}} {
				if math.Float64bits(c.v) != math.Float64bits(want) {
					t.Errorf("%v segment %d (%+v): %s %v != reference %v (bitwise)", policy, i, s, c.path, c.v, want)
				}
			}
		}
	}
}

// TestConfigureLookupPolicy: WithLookupPolicy through Configure changes
// what an out-of-range lookup does, as it does at construction, and
// leaves the sets the extractor held untouched.
func TestConfigureLookupPolicy(t *testing.T) {
	seg := fig1Segment()
	seg.SignalWidth = units.Um(80) // far beyond the 12 µm width axis

	built, err := NewExtractor(testTech(), fsig, testAxes(), []geom.Shielding{geom.ShieldNone},
		WithLookupPolicy(table.LookupError))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := built.LoopL(seg); !errors.Is(err, table.ErrOutOfRange) {
		t.Fatalf("constructed with LookupError: got %v, want ErrOutOfRange", err)
	}

	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone})
	shared, err := e.Tables(geom.ShieldNone)
	if err != nil {
		t.Fatal(err)
	}
	extrapolated, err := e.LoopL(seg)
	if err != nil {
		t.Fatal(err)
	}
	e.Configure(WithLookupPolicy(table.LookupError))
	if v, err := e.LoopL(seg); !errors.Is(err, table.ErrOutOfRange) {
		t.Fatalf("configured LookupError: got %v, %v; want ErrOutOfRange", v, err)
	}
	clamps := obs.GetCounter("table.lookup_oob_clamps")
	c0 := clamps.Value()
	e.Configure(WithLookupPolicy(table.LookupClamp))
	clamped, err := e.LoopL(seg)
	if err != nil {
		t.Fatal(err)
	}
	if clamps.Value() == c0 {
		t.Error("configured LookupClamp: table.lookup_oob_clamps did not advance")
	}
	if want := referenceLoopL(t, e, seg); math.Float64bits(clamped) != math.Float64bits(want) {
		t.Errorf("configured LookupClamp: LoopL %v, clamped reference %v", clamped, want)
	}
	e.Configure(WithLookupPolicy(table.LookupExtrapolate))
	if v, err := e.LoopL(seg); err != nil || math.Float64bits(v) != math.Float64bits(extrapolated) {
		t.Errorf("back to LookupExtrapolate: got %v, %v; want %v", v, err, extrapolated)
	}
	if shared.Lookup != table.LookupExtrapolate {
		t.Errorf("Configure wrote the extractor's original set: Lookup = %v", shared.Lookup)
	}
}

// TestLoopLAllocations: a one-segment composition with checks off, no
// fault injector and no trace sink allocates at most the packed query
// buffer and one more, once the pools are warm.
func TestLoopLAllocations(t *testing.T) {
	// No collection during the measurement, so the pools stay warm.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	check.SetPolicy(check.Off)
	fault.Reset()
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone})
	seg := fig1Segment()
	if _, err := e.LoopL(seg); err != nil { // warm the pools
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.LoopL(seg); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 2+poolMissAllocs {
		t.Errorf("LoopL allocates %v per call, want at most %d", allocs, 2+poolMissAllocs)
	}
}
