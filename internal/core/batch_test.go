package core

import (
	"runtime"
	"strings"
	"testing"

	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

// batchSegs returns n distinct segments inside the test tables' axes:
// the first 24 step every dimension, later ones repeat that sweep
// with a small offset per round.
func batchSegs(n int) []Segment {
	segs := make([]Segment, n)
	for i := range segs {
		f := float64(i%24) + float64(i/24)/32
		segs[i] = Segment{
			Length:      units.Um(400 + 150*f),
			SignalWidth: units.Um(2 + f/8),
			GroundWidth: units.Um(2 + f/10),
			Spacing:     units.Um(1 + f/16),
			Shielding:   geom.ShieldNone,
		}
	}
	return segs
}

// Batch extraction must return exactly what a serial loop over
// SegmentRLC returns, in input order — the lookups are pure reads, so
// fan-out cannot change a single bit. At GOMAXPROCS 1 the R/C phase is
// a serial loop, at 4 it runs on four workers; 512 segments put 1,024
// queries in each batch lookup.
func TestSegmentsRLCMatchesSerial(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone})
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, n := range []int{1, 24, 512} {
			segs := batchSegs(n)
			got, err := e.SegmentsRLC(segs)
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(segs) {
				t.Fatalf("%d results for %d segments", len(got), len(segs))
			}
			for i, s := range segs {
				want, err := e.SegmentRLC(s)
				if err != nil {
					t.Fatal(err)
				}
				if rlc := got[i]; rlc.R != want.R || rlc.L != want.L || rlc.C != want.C {
					t.Fatalf("GOMAXPROCS %d, %d segments: segment %d drifted: got (%g, %g, %g), want (%g, %g, %g)",
						procs, n, i, rlc.R, rlc.L, rlc.C, want.R, want.L, want.C)
				}
			}
		}
	}
}

func TestSegmentsRLCErrorNamesSegment(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone})
	segs := batchSegs(8)
	segs[5].Length = -1
	_, err := e.SegmentsRLC(segs)
	if err == nil {
		t.Fatal("batch accepted an invalid segment")
	}
	if !strings.Contains(err.Error(), "segment 5") {
		t.Errorf("batch error does not identify the failing segment: %v", err)
	}
}

func TestSegmentsRLCEmptyAndCounters(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone})
	out, err := e.SegmentsRLC(nil)
	if err != nil || len(out) != 0 {
		t.Fatalf("empty batch: %v, %d results", err, len(out))
	}
	segs0 := obs.GetCounter("core.batch_segments").Value()
	runs0 := obs.GetCounter("core.batch_runs").Value()
	if _, err := e.SegmentsRLC(batchSegs(6)); err != nil {
		t.Fatal(err)
	}
	if got := obs.GetCounter("core.batch_segments").Value() - segs0; got != 6 {
		t.Errorf("batch_segments += %d, want 6", got)
	}
	if got := obs.GetCounter("core.batch_runs").Value() - runs0; got < 1 {
		t.Errorf("batch_runs += %d, want >= 1", got)
	}
}

// NewExtractor with a warm cache must construct without a single
// field-solver call — the subsystem's acceptance criterion — and its
// lookups must match the cold extractor's bit for bit.
func TestExtractorCacheWarmConstruction(t *testing.T) {
	cache, err := table.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	shieldings := []geom.Shielding{geom.ShieldNone}
	cold, err := NewExtractor(testTech(), fsig, testAxes(), shieldings, WithTableCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	solves := obs.GetCounter("table.solver_calls")
	solves0 := solves.Value()
	warm, err := NewExtractor(testTech(), fsig, testAxes(), shieldings, WithTableCache(cache))
	if err != nil {
		t.Fatal(err)
	}
	if got := solves.Value() - solves0; got != 0 {
		t.Errorf("warm construction ran %d field-solver calls, want 0", got)
	}
	a, err := cold.LoopL(fig1Segment())
	if err != nil {
		t.Fatal(err)
	}
	b, err := warm.LoopL(fig1Segment())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("cache-built extractor drifted: %g vs %g", a, b)
	}
	// The batch path rides the cached tables identically.
	batch, err := warm.SegmentsRLC(batchSegs(5))
	if err != nil {
		t.Fatal(err)
	}
	serial, err := cold.SegmentRLC(batchSegs(5)[0])
	if err != nil {
		t.Fatal(err)
	}
	if batch[0].L != serial.L {
		t.Errorf("batch over cached tables drifted: %g vs %g", batch[0].L, serial.L)
	}
}

func TestNewExtractorFromTablesRejections(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone})
	set, err := e.Tables(geom.ShieldNone)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := NewExtractorFromTables(testTech(), fsig, set, nil); err == nil {
		t.Error("accepted a nil table set")
	}

	// Two sets for the same shielding configuration: the old code kept
	// whichever came last, silently.
	dup := *set
	dup.Config.Name = "other/coplanar"
	_, err = NewExtractorFromTables(testTech(), fsig, set, &dup)
	if err == nil {
		t.Error("accepted duplicate shielding sets")
	} else if !strings.Contains(err.Error(), "duplicate") {
		t.Errorf("duplicate error unclear: %v", err)
	}

	// A library built at the wrong significant frequency yields
	// silently wrong loop L; it must be rejected, naming both values.
	wrong := *set
	wrong.Config.Frequency = fsig / 2
	_, err = NewExtractorFromTables(testTech(), fsig, &wrong)
	if err == nil {
		t.Error("accepted tables built at the wrong frequency")
	} else if !strings.Contains(err.Error(), "Hz") {
		t.Errorf("frequency error unclear: %v", err)
	}

	// Representation jitter stays accepted.
	jitter := *set
	jitter.Config.Frequency = fsig * (1 + 1e-12)
	if _, err := NewExtractorFromTables(testTech(), fsig, &jitter); err != nil {
		t.Errorf("rejected 1e-12 relative frequency jitter: %v", err)
	}
}
