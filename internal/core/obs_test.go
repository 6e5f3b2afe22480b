package core

import (
	"testing"

	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
)

// TestExtractorSpanNesting checks the trace shape a CLI run produces
// on the process observer: table builds during construction, then
// per-segment core.extract spans each parenting a table.lookup span.
func TestExtractorSpanNesting(t *testing.T) {
	mem := &obs.MemorySink{}
	obs.Default().AddSink(mem)
	defer obs.Default().RemoveSink(mem)
	e, err := NewExtractor(testTech(), fsig, testAxes(),
		[]geom.Shielding{geom.ShieldNone})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.SegmentRLC(fig1Segment()); err != nil {
		t.Fatal(err)
	}

	var extractID uint64
	starts := map[string]int{}
	var lookupParent uint64
	for _, ev := range mem.Events() {
		if ev.Type != obs.EventSpanStart {
			continue
		}
		starts[ev.Name]++
		switch ev.Name {
		case "core.extract":
			extractID = ev.Span
		case "table.lookup":
			lookupParent = ev.Parent
		}
	}
	for _, name := range []string{"core.build_tables", "table.build", "core.extract", "table.lookup"} {
		if starts[name] == 0 {
			t.Errorf("no %q span recorded (got %v)", name, starts)
		}
	}
	if extractID == 0 || lookupParent != extractID {
		t.Errorf("table.lookup parent = %d, want core.extract span %d", lookupParent, extractID)
	}
}
