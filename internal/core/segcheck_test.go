package core

// The segment-stage invariants of checkLoopComposition: exact labels
// for each violation, and no allocation for values that pass.

import (
	"errors"
	"math"
	"testing"

	"clockrlc/internal/check"
	"clockrlc/internal/geom"
	"clockrlc/internal/units"
)

// TestLoopCompositionGoldenMessages pins each segment-stage
// invariant's Subject and Detail byte for byte. The strings are the
// check's output from before the segment label moved inside report.
func TestLoopCompositionGoldenMessages(t *testing.T) {
	seg := Segment{
		Length: units.Um(500), SignalWidth: units.Um(2), GroundWidth: units.Um(3),
		Spacing: units.Um(1.5), Shielding: geom.ShieldMicrostrip,
	}
	const subject = "segment (microstrip, l=0.0005, ws=2e-06, wg=3e-06, s=1.5e-06)"
	strict := check.New(check.Strict)
	for _, tc := range []struct {
		ls, lg, msg, mgg, lloop float64
		invariant, detail       string
	}{
		{1e-9, 4e-10, 9e-10, 1e-10, 5e-10,
			"signal-ground coupling k < 1", "k = |Msg|/sqrt(Ls*Lg) = 1.423 (Msg=9e-10, Ls=1e-09, Lg=4e-10)"},
		{1e-9, 4e-10, 1e-10, 5e-10, 5e-10,
			"ground-ground coupling k < 1", "k = |Mgg|/Lg = 1.25 (Mgg=5e-10, Lg=4e-10)"},
		{1e-9, 4e-10, 1e-10, 1e-10, -2e-11,
			"loop inductance finite and positive", "Lloop = -2e-11 (Ls=1e-09, Lg=4e-10, Msg=1e-10, Mgg=1e-10)"},
		{1e-9, 4e-10, 1e-10, 1e-10, math.NaN(),
			"loop inductance finite and positive", "Lloop = NaN (Ls=1e-09, Lg=4e-10, Msg=1e-10, Mgg=1e-10)"},
	} {
		err := checkLoopComposition(strict, seg, tc.ls, tc.lg, tc.msg, tc.mgg, tc.lloop)
		var v *check.Violation
		if !errors.As(err, &v) {
			t.Fatalf("%s: want a violation, got %v", tc.invariant, err)
		}
		if v.Stage != check.StageSegment || v.Invariant != tc.invariant || v.Subject != subject ||
			v.Cell != "" || v.Detail != tc.detail {
			t.Errorf("got %s | %q | %q | %q | %q\nwant %s | %q | %q | \"\" | %q",
				v.Stage, v.Invariant, v.Subject, v.Cell, v.Detail,
				check.StageSegment, tc.invariant, subject, tc.detail)
		}
	}

	// The full error text of a coplanar segment, as strict callers see it.
	cpw := Segment{
		Length: units.Um(800), SignalWidth: units.Um(3), GroundWidth: units.Um(2),
		Spacing: units.Um(1.8), Shielding: geom.ShieldNone,
	}
	err := checkLoopComposition(strict, cpw, 1e-9, 4e-10, 1e-10, 1e-10, math.Inf(1))
	const want = `check: segment: invariant "loop inductance finite and positive" violated in ` +
		`segment (coplanar, l=0.0007999999999999999, ws=3e-06, wg=2e-06, s=1.8e-06): ` +
		`Lloop = +Inf (Ls=1e-09, Lg=4e-10, Msg=1e-10, Mgg=1e-10)`
	if err == nil || err.Error() != want {
		t.Errorf("error text\n got %v\nwant %s", err, want)
	}

	// Under Warn every breached invariant of one composition counts.
	v0 := check.StageViolations(check.StageSegment)
	if err := checkLoopComposition(check.New(check.Warn), seg, 1e-9, 4e-10, 9e-10, 5e-10, math.NaN()); err != nil {
		t.Fatalf("warn returned %v", err)
	}
	if d := check.StageViolations(check.StageSegment) - v0; d != 3 {
		t.Errorf("warn counted %d segment violations, want 3", d)
	}
}

// Clean values under an armed engine cost the comparisons alone: no
// label is formatted, so nothing is allocated.
func TestLoopCompositionCleanAllocatesNothing(t *testing.T) {
	seg := fig1Segment()
	warn := check.New(check.Warn)
	allocs := testing.AllocsPerRun(100, func() {
		if err := checkLoopComposition(warn, seg, 1e-9, 4e-10, 1e-10, 1e-10, 8e-10); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("clean armed segment check allocates %v per call, want 0", allocs)
	}
}
