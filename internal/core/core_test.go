package core

import (
	"math"
	"testing"

	"clockrlc/internal/geom"
	"clockrlc/internal/netlist"
	"clockrlc/internal/obs"
	"clockrlc/internal/peec"
	"clockrlc/internal/sim"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

const fsig = 3.2e9

func testTech() Technology {
	return Technology{
		Thickness:      units.Um(2),
		Rho:            units.RhoCopper,
		EpsRel:         units.EpsSiO2,
		CapHeight:      units.Um(2),
		PlaneGap:       units.Um(2),
		PlaneThickness: units.Um(1),
	}
}

func testAxes() table.Axes {
	return table.Axes{
		Widths:   table.LogAxis(units.Um(1), units.Um(12), 4),
		Spacings: table.LogAxis(units.Um(0.8), units.Um(22), 6),
		Lengths:  table.LogAxis(units.Um(100), units.Um(6000), 6),
	}
}

func fig1Segment() Segment {
	return Segment{
		Length:      units.Um(6000),
		SignalWidth: units.Um(10),
		GroundWidth: units.Um(5),
		Spacing:     units.Um(1),
		Shielding:   geom.ShieldNone,
	}
}

func newTestExtractor(t *testing.T, sh []geom.Shielding) *Extractor {
	t.Helper()
	e, err := NewExtractor(testTech(), fsig, testAxes(), sh)
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestLoopLCompositionMatchesDirectCPW(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone})
	seg := fig1Segment()
	composed, err := e.LoopL(seg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := e.DirectLoopL(seg)
	if err != nil {
		t.Fatal(err)
	}
	if composed <= 0 {
		t.Fatalf("composed loop L = %g", composed)
	}
	// The composition misses drive/return proximity crowding (it is
	// built from isolated subproblems), which costs several percent at
	// the significant frequency for 1 µm gaps; see DirectLoopL's doc.
	if rel := math.Abs(composed-direct) / direct; !(rel <= 0.10) {
		t.Errorf("CPW composition %g vs direct %g (rel %g)", composed, direct, rel)
	}
}

func TestLoopLCompositionMatchesDirectMicrostrip(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldMicrostrip})
	seg := fig1Segment()
	seg.Shielding = geom.ShieldMicrostrip
	composed, err := e.LoopL(seg)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := e.DirectLoopL(seg)
	if err != nil {
		t.Fatal(err)
	}
	if composed <= 0 {
		t.Fatalf("composed microstrip loop L = %g", composed)
	}
	// Shorted-loop composition plus the proximity-crowding gap.
	if rel := math.Abs(composed-direct) / direct; !(rel <= 0.14) {
		t.Errorf("microstrip composition %g vs direct %g (rel %g)", composed, direct, rel)
	}
}

func TestMicrostripLoopBelowCPW(t *testing.T) {
	e := newTestExtractor(t, nil) // builds both
	cpw := fig1Segment()
	ms := cpw
	ms.Shielding = geom.ShieldMicrostrip
	a, err := e.LoopL(cpw)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.LoopL(ms)
	if err != nil {
		t.Fatal(err)
	}
	if b >= a {
		t.Errorf("microstrip loop L %g must be below CPW %g", b, a)
	}
}

func TestSegmentRLCFig1Magnitudes(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone})
	rlc, err := e.SegmentRLC(fig1Segment())
	if err != nil {
		t.Fatal(err)
	}
	// 6 mm × 10 µm × 2 µm Cu: ≈ 5 Ω (plus a small skin correction).
	if rlc.R < 4.5 || rlc.R > 8 {
		t.Errorf("R = %g Ω, want ≈ 5–7 Ω", rlc.R)
	}
	// Loop L of the Fig. 1 CPW: a few nH.
	if nh := units.ToNH(rlc.L); nh < 1 || nh > 8 {
		t.Errorf("L = %g nH, want O(1–8)", nh)
	}
	// Total C: O(1) pF.
	if pf := rlc.C / 1e-12; pf < 0.5 || pf > 5 {
		t.Errorf("C = %g pF, want O(1)", pf)
	}
	// RC-only variant zeroes L and keeps the rest.
	rc, err := e.SegmentRCOnly(fig1Segment())
	if err != nil {
		t.Fatal(err)
	}
	if rc.L != 0 || rc.R != rlc.R || rc.C != rlc.C {
		t.Errorf("SegmentRCOnly = %+v, want L=0 with same R, C", rc)
	}
}

// SegmentRCOnly must not touch the inductance tables at all: R and C
// are extracted directly, so no spline evaluation and no loop
// composition may occur.
func TestSegmentRCOnlySkipsTableLookups(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone})
	evals0 := obs.GetCounter("spline.evals").Value()
	comps0 := obs.GetCounter("core.loop_compositions").Value()
	rc, err := e.SegmentRCOnly(fig1Segment())
	if err != nil {
		t.Fatal(err)
	}
	if rc.L != 0 || rc.R <= 0 || rc.C <= 0 {
		t.Errorf("SegmentRCOnly = %+v, want L=0, R>0, C>0", rc)
	}
	if got := obs.GetCounter("spline.evals").Value() - evals0; got != 0 {
		t.Errorf("RC-only extraction performed %d spline evals, want 0", got)
	}
	if got := obs.GetCounter("core.loop_compositions").Value() - comps0; got != 0 {
		t.Errorf("RC-only extraction composed loop L %d times, want 0", got)
	}
}

// Segments inside the documented DefaultAxes sweep (widths 0.6–20 µm,
// spacings 0.6–10 µm, lengths 50–8000 µm) must never clamp: the
// spacing axis is tabulated out to the worst-case ground-to-ground
// lookup 2·s + w = 40 µm, so every lookup of an in-range segment —
// including the derived one — interpolates.
func TestDefaultAxesInRangeSegmentsZeroClamps(t *testing.T) {
	ax := table.DefaultAxes()
	e, err := NewExtractor(testTech(), fsig, ax, []geom.Shielding{geom.ShieldNone})
	if err != nil {
		t.Fatal(err)
	}
	widths := []float64{ax.Widths[0], units.Um(5), ax.Widths[len(ax.Widths)-1]}
	spacings := []float64{units.Um(0.6), units.Um(3), units.Um(10)} // the user sweep
	lengths := []float64{ax.Lengths[0], units.Um(1000), ax.Lengths[len(ax.Lengths)-1]}
	clamped0 := table.ClampedLookups()
	for _, w := range widths {
		for _, gw := range widths {
			for _, s := range spacings {
				for _, l := range lengths {
					seg := Segment{Length: l, SignalWidth: w, GroundWidth: gw, Spacing: s}
					if _, err := e.LoopL(seg); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	if got := table.ClampedLookups() - clamped0; got != 0 {
		t.Errorf("in-range segments produced %d clamped lookups, want 0", got)
	}
}

// delayOut simulates a driver + segment netlist and returns the sink's
// 50 % arrival time from t = 0.
func delayOut(t *testing.T, build func(nl *netlist.Netlist) error) float64 {
	t.Helper()
	nl := netlist.New()
	nl.AddV("vsrc", "drv", "0", netlist.Ramp{V0: 0, V1: 1, Start: 5e-12, Rise: 100e-12})
	nl.AddR("rdrv", "drv", "in", 40)
	nl.AddC("cl", "out", "0", 50e-15)
	if err := build(nl); err != nil {
		t.Fatal(err)
	}
	if err := nl.Validate(); err != nil {
		t.Fatalf("netlist invalid: %v", err)
	}
	res, err := sim.Transient(nl, 0.5e-12, 1500e-12, []string{"out"})
	if err != nil {
		t.Fatal(err)
	}
	vout, _ := res.Waveform("out")
	d, err := sim.DelayFromT0(res.Time, vout, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// With near-ideal (very low resistivity) ground wires the return
// current distribution is purely inductance-determined, which is the
// regime where folding the grounds into a loop inductance is exact —
// the loop ladder and the rigorous sectioned-PEEC netlist must agree.
func TestLoopAndPartialFormulationsConvergeLowLoss(t *testing.T) {
	tech := testTech()
	tech.Rho = units.RhoCopper / 1000
	e, err := NewExtractor(tech, fsig, testAxes(), []geom.Shielding{geom.ShieldNone})
	if err != nil {
		t.Fatal(err)
	}
	seg := fig1Segment()
	rlc, err := e.SegmentRLC(seg)
	if err != nil {
		t.Fatal(err)
	}
	dLoop := delayOut(t, func(nl *netlist.Netlist) error {
		_, err := nl.AddLadder("seg", "in", "out", rlc, 8)
		return err
	})
	dPart := delayOut(t, func(nl *netlist.Netlist) error {
		return e.PartialNetlist(nl, "seg", "in", "out", seg, 8)
	})
	if rel := math.Abs(dLoop-dPart) / dPart; !(rel <= 0.10) {
		t.Errorf("low-loss: loop delay %g vs partial %g (rel %g)", dLoop, dPart, rel)
	}
}

// With real copper grounds the formulations differ by the resistive
// return-path migration the loop method neglects; the paper accepts
// this as part of its approximation. Keep the envelope honest.
func TestLoopAndPartialFormulationsCopperEnvelope(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone})
	seg := fig1Segment()
	rlc, err := e.SegmentRLC(seg)
	if err != nil {
		t.Fatal(err)
	}
	dLoop := delayOut(t, func(nl *netlist.Netlist) error {
		_, err := nl.AddLadder("seg", "in", "out", rlc, 8)
		return err
	})
	dPart := delayOut(t, func(nl *netlist.Netlist) error {
		return e.PartialNetlist(nl, "seg", "in", "out", seg, 8)
	})
	if dLoop <= 0 || dPart <= 0 {
		t.Fatalf("non-positive sink delays: %g, %g", dLoop, dPart)
	}
	if rel := math.Abs(dLoop-dPart) / dPart; !(rel <= 0.40) {
		t.Errorf("copper: loop delay %g vs partial %g (rel %g)", dLoop, dPart, rel)
	}
}

func TestExtractorValidation(t *testing.T) {
	if _, err := NewExtractor(Technology{}, fsig, testAxes(), nil); err == nil {
		t.Error("accepted empty technology")
	}
	if _, err := NewExtractor(testTech(), 0, testAxes(), nil); err == nil {
		t.Error("accepted zero frequency")
	}
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone})
	if _, err := e.Tables(geom.ShieldStripline); err == nil {
		t.Error("returned tables never built")
	}
	bad := fig1Segment()
	bad.Length = 0
	if _, err := e.LoopL(bad); err == nil {
		t.Error("accepted zero-length segment")
	}
	seg := fig1Segment()
	seg.Shielding = geom.ShieldMicrostrip
	if _, err := e.LoopL(seg); err == nil {
		t.Error("looked up a configuration without tables")
	}
	if err := e.PartialNetlist(netlist.New(), "p", "a", "b", seg, 4); err == nil {
		t.Error("partial netlist accepted a shielded segment")
	}
	if err := e.PartialNetlist(netlist.New(), "p", "a", "b", fig1Segment(), 0); err == nil {
		t.Error("partial netlist accepted zero sections")
	}
}

func TestNewExtractorFromTables(t *testing.T) {
	e := newTestExtractor(t, []geom.Shielding{geom.ShieldNone})
	set, err := e.Tables(geom.ShieldNone)
	if err != nil {
		t.Fatal(err)
	}
	e2, err := NewExtractorFromTables(testTech(), fsig, set)
	if err != nil {
		t.Fatal(err)
	}
	a, err := e.LoopL(fig1Segment())
	if err != nil {
		t.Fatal(err)
	}
	b, err := e2.LoopL(fig1Segment())
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("wrapped tables disagree: %g vs %g", a, b)
	}
}

func TestSignificantFrequencyReexport(t *testing.T) {
	if got := SignificantFrequency(100e-12); math.Abs(got-3.2e9) > 1 {
		t.Errorf("SignificantFrequency = %g", got)
	}
}

func TestStriplineOrdering(t *testing.T) {
	// Stripline (planes both sides) shields harder than microstrip,
	// which shields harder than the bare CPW: loop L strictly ordered.
	e, err := NewExtractor(testTech(), fsig, testAxes(),
		[]geom.Shielding{geom.ShieldNone, geom.ShieldMicrostrip, geom.ShieldStripline})
	if err != nil {
		t.Fatal(err)
	}
	seg := fig1Segment()
	var ls [3]float64
	for i, sh := range []geom.Shielding{geom.ShieldNone, geom.ShieldMicrostrip, geom.ShieldStripline} {
		s := seg
		s.Shielding = sh
		if ls[i], err = e.LoopL(s); err != nil {
			t.Fatalf("%v: %v", sh, err)
		}
		if ls[i] <= 0 {
			t.Fatalf("%v: loop L = %g", sh, ls[i])
		}
	}
	if !(ls[2] < ls[1] && ls[1] < ls[0]) {
		t.Errorf("shielding ordering violated: cpw %g, microstrip %g, stripline %g", ls[0], ls[1], ls[2])
	}
	// The stripline block geometry has both planes.
	s := seg
	s.Shielding = geom.ShieldStripline
	blk, err := e.Block(s)
	if err != nil {
		t.Fatal(err)
	}
	if blk.PlaneBelow == nil || blk.PlaneAbove == nil {
		t.Error("stripline block must carry both planes")
	}
	if blk.PlaneAbove.Z <= blk.PlaneBelow.Z {
		t.Error("plane z ordering wrong")
	}
	// Stripline composition also tracks its direct solve.
	composed, err := e.LoopL(s)
	if err != nil {
		t.Fatal(err)
	}
	direct, err := e.DirectLoopL(s)
	if err != nil {
		t.Fatal(err)
	}
	if rel := math.Abs(composed-direct) / direct; !(rel <= 0.15) {
		t.Errorf("stripline composition %g vs direct %g (rel %g)", composed, direct, rel)
	}
}

// The builder refuses what it cannot stamp: no sections, and a
// coupling capacitance on the last wire, which has no next wire.
func TestAddPartialWiresValidation(t *testing.T) {
	e := &Extractor{Tech: testTech(), Frequency: fsig}
	sig := PartialWire{
		Name: "s", From: "a", To: "b", C: 1e-13,
		Bar: peec.Bar{Axis: peec.AxisX, L: units.Um(100), W: units.Um(2), T: units.Um(2)},
	}
	if err := e.AddPartialWires(netlist.New(), "p", []PartialWire{sig}, 0, false); err == nil {
		t.Error("accepted zero sections")
	}
	sig.CNext = 1e-14
	if err := e.AddPartialWires(netlist.New(), "p", []PartialWire{sig}, 2, false); err == nil {
		t.Error("accepted a coupling capacitance on the last wire")
	}
}
