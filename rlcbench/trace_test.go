package main

import (
	"math"
	"testing"
	"time"

	"clockrlc/internal/obs"
)

// spanEvents builds a start/end event pair.
func spanEvents(id, parent uint64, name string, start, dur time.Duration, attrs map[string]any) []obs.Event {
	t0 := time.Unix(0, 0).Add(start)
	return []obs.Event{
		{Type: obs.EventSpanStart, Name: name, Span: id, Parent: parent, Time: t0},
		{Type: obs.EventSpanEnd, Name: name, Span: id, Parent: parent, Time: t0.Add(dur), Dur: dur, Attrs: attrs},
	}
}

// Two operations of 10 ms and 30 ms. Each root's children leave a gap
// the benchmark cannot attribute; shares are self time over the roots'
// 40 ms of wall time, and they add up to 100 % with the gap.
func TestBreakdownCoverageArithmetic(t *testing.T) {
	var ev []obs.Event
	ev = append(ev, spanEvents(1, 0, "bench.op", 0, ms(10), nil)...)
	ev = append(ev, spanEvents(2, 1, "core.batch", 0, ms(8), nil)...)
	ev = append(ev, spanEvents(3, 2, "table.lookup", ms(1), ms(4), map[string]any{"batch": 100})...)
	ev = append(ev, spanEvents(4, 0, "bench.op", ms(20), ms(30), nil)...)
	ev = append(ev, spanEvents(5, 4, "core.batch", ms(20), ms(29), nil)...)
	ev = append(ev, spanEvents(6, 5, "table.lookup", ms(21), ms(12), map[string]any{"batch": float64(300)})...)
	// Outside any operation: set-up spans are not part of the breakdown.
	ev = append(ev, spanEvents(7, 0, "table.build", ms(60), ms(50), nil)...)

	b := analyze(obs.BuildTrace(ev), "bench.op")
	if b.roots != 2 || b.rootWall != ms(40) {
		t.Fatalf("roots %d wall %v, want 2 and 40ms", b.roots, b.rootWall)
	}
	core, lookup, gap := b.share("core.batch"), b.share("table.lookup"), b.unattributed("bench.op")
	if !near(core, 100*21.0/40) || !near(lookup, 100*16.0/40) || !near(gap, 3.0/40) {
		t.Errorf("core %g%% lookup %g%% unattributed %g, want 52.5%% 40%% 0.075", core, lookup, gap)
	}
	if !near(core+lookup+100*gap, 100) {
		t.Errorf("shares add to %g%%, want 100%%", core+lookup+100*gap)
	}
	if b.lookupSegs != 400 {
		t.Errorf("lookup segments %d, want 400 (int and decoded float attributes)", b.lookupSegs)
	}
	if got := b.perRoot("core.batch"); !near(got, 0.0105) {
		t.Errorf("core self per op %gs, want 0.0105s", got)
	}
	if b.self["table.build"] != 0 {
		t.Error("a span outside the operations was attributed")
	}
}

func TestSetupStatsParallelEfficiency(t *testing.T) {
	var ev []obs.Event
	ev = append(ev, spanEvents(1, 0, "table.build", 0, ms(10), map[string]any{"workers": 2})...)
	for i := uint64(0); i < 4; i++ {
		ev = append(ev, spanEvents(2+i, 1, "table.mutual_cell", 0, ms(4), nil)...)
	}
	ev = append(ev, spanEvents(9, 0, "table.cache", ms(20), ms(3), map[string]any{"outcome": "hit"})...)
	ev = append(ev, spanEvents(10, 0, "table.cache", ms(30), ms(9), map[string]any{"outcome": "miss"})...)
	tr := obs.BuildTrace(ev)
	buildS, eff := setupStats(tr)
	if !near(buildS, 0.010) || !near(eff, 16.0/20) {
		t.Errorf("build %gs efficiency %g, want 0.01s and 0.8", buildS, eff)
	}
	if got := cacheOpenUs(tr); !near(got, 3000) {
		t.Errorf("cache open %gus, want 3000us from the hit only", got)
	}
}

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }
