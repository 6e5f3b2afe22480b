// Package xtalk models the coupling of neighbouring signals into a
// shielded clock segment — Section V's point that "the coupling effect
// mainly inductive coupling of other signals next to the clocktree can
// be taken care of by simply adding them in the clocktree simulation",
// and Section IV's conclusion that ground wires of at least the signal
// width shield that coupling.
//
// A scenario places an aggressor wire beyond one ground shield of the
// victim's coplanar waveguide. All four wires go to core's
// sectioned-PEEC builder (Extractor.AddPartialWires), which couples
// their bars through the full partial-inductance matrix; the aggressor
// switches while the victim's driver holds low, and the victim sink's
// peak noise is measured with the MNA simulator. Capacitive coupling
// from aggressor to victim is blocked by the grounded shield (the
// 2-D field solver shows the across-shield capacitance is >10× below
// the adjacent coupling), so the noise observed is dominantly
// inductive — the regime the paper highlights.
package xtalk

import (
	"fmt"
	"math"

	"clockrlc/internal/capmodel"
	"clockrlc/internal/core"
	"clockrlc/internal/netlist"
	"clockrlc/internal/peec"
	"clockrlc/internal/sim"
)

// Scenario describes an aggressor next to a shielded victim.
type Scenario struct {
	// Victim is the clock segment (3-wire CPW profile; Shielding must
	// be ShieldNone — the coplanar shields are modelled explicitly).
	Victim core.Segment
	// AggressorWidth and AggressorSpacing place the aggressor beyond
	// the right shield (edge-to-edge from the shield).
	AggressorWidth, AggressorSpacing float64
	// Sections per wire (default 8).
	Sections int
	// DriverRes drives both the victim (holding low) and the
	// aggressor (switching 0→1 V); default 40 Ω.
	DriverRes float64
	// RiseTime of the aggressor edge; default 50 ps.
	RiseTime float64
	// LoadCap at the victim and aggressor far ends; default 50 fF.
	LoadCap float64
	// Unshielded removes the two ground wires, leaving the victim to
	// return through the ideal rail only — the configuration the
	// paper's shielding rule protects against. The aggressor then sits
	// AggressorSpacing from the victim itself.
	Unshielded bool
}

func (s Scenario) withDefaults() Scenario {
	if s.Sections <= 0 {
		s.Sections = 8
	}
	if s.DriverRes <= 0 {
		s.DriverRes = 40
	}
	if s.RiseTime <= 0 {
		s.RiseTime = 50e-12
	}
	if s.LoadCap <= 0 {
		s.LoadCap = 50e-15
	}
	return s
}

// Validate checks the scenario.
func (s Scenario) Validate() error {
	if err := s.Victim.Validate(); err != nil {
		return err
	}
	if s.AggressorWidth <= 0 || s.AggressorSpacing <= 0 {
		return fmt.Errorf("xtalk: aggressor geometry must be positive (w=%g, s=%g)", s.AggressorWidth, s.AggressorSpacing)
	}
	return nil
}

// Result is one crosstalk run.
type Result struct {
	// PeakNoise is the largest |V| at the quiet victim's sink for a
	// 1 V aggressor swing.
	PeakNoise float64
	// Time and VictimSink hold the noise waveform.
	Time, VictimSink []float64
}

// Run simulates the scenario with extractor e's technology.
func Run(e *core.Extractor, sc Scenario) (*Result, error) {
	sc = sc.withDefaults()
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	blk, err := e.Block(sc.Victim)
	if err != nil {
		return nil, err
	}
	vicCap, err := e.SegmentCap(sc.Victim)
	if err != nil {
		return nil, err
	}
	// Aggressor capacitance: ground component plus grounded coupling
	// to the adjacent shield.
	aggGround, err := capmodel.GroundCap(sc.AggressorWidth, e.Tech.Thickness, e.Tech.CapHeight, e.Tech.EpsRel)
	if err != nil {
		return nil, err
	}
	aggCouple, err := capmodel.CouplingCap(sc.AggressorWidth, e.Tech.Thickness,
		e.Tech.CapHeight, sc.AggressorSpacing, e.Tech.EpsRel)
	if err != nil {
		return nil, err
	}

	// Wires: g1, victim, g2 from the block, plus the aggressor beyond
	// g2 — or just victim + aggressor for the unshielded comparison,
	// where the victim keeps its total (grounded-coupling) capacitance
	// and the shields are simply absent from the inductive system.
	g1, vic, g2 := blk.Traces[0], blk.Traces[1], blk.Traces[2]
	outer := g2
	if sc.Unshielded {
		outer = vic
	}
	aggY := outer.Y + outer.Width/2 + sc.AggressorSpacing + sc.AggressorWidth/2
	victim := core.PartialWire{Name: "v", Bar: peec.BarFromTrace(vic), From: "v.in", To: "v.out", C: vicCap}
	aggressor := core.PartialWire{
		Name: "a",
		Bar: peec.Bar{
			Axis: peec.AxisX,
			O:    [3]float64{0, aggY - sc.AggressorWidth/2, g1.Z - g1.Thickness/2},
			L:    sc.Victim.Length, W: sc.AggressorWidth, T: e.Tech.Thickness,
		},
		From: "a.in", To: "a.out", C: (aggGround + aggCouple) * sc.Victim.Length,
	}
	wires := []core.PartialWire{victim, aggressor}
	if !sc.Unshielded {
		wires = []core.PartialWire{
			{Name: "g1", Bar: peec.BarFromTrace(g1), Ground: true},
			victim,
			{Name: "g2", Bar: peec.BarFromTrace(g2), Ground: true},
			aggressor,
		}
	}

	nl := netlist.New()
	// Victim driver holds low through its output resistance; the
	// aggressor switches.
	nl.AddV("vagg", "adrv", netlist.Ground, netlist.Ramp{V0: 0, V1: 1, Start: 5e-12, Rise: sc.RiseTime})
	nl.AddR("ragg", "adrv", "a.in", sc.DriverRes)
	nl.AddV("vvic", "vdrv", netlist.Ground, netlist.DC(0))
	nl.AddR("rvic", "vdrv", "v.in", sc.DriverRes)
	if err := e.AddPartialWires(nl, "xt", wires, sc.Sections, false); err != nil {
		return nil, err
	}
	nl.AddC("clv", "v.out", netlist.Ground, sc.LoadCap)
	nl.AddC("cla", "a.out", netlist.Ground, sc.LoadCap)

	horizon := 20 * sc.RiseTime
	res, err := sim.Transient(nl, sc.RiseTime/200, horizon, []string{"v.out"})
	if err != nil {
		return nil, fmt.Errorf("xtalk: %w", err)
	}
	v, _ := res.Waveform("v.out")
	out := &Result{Time: res.Time, VictimSink: v}
	for _, x := range v {
		if a := math.Abs(x); a > out.PeakNoise {
			out.PeakNoise = a
		}
	}
	return out, nil
}

// ShieldSweepPoint is one row of a shield-width sweep.
type ShieldSweepPoint struct {
	// WidthRatio is shield width / signal width.
	WidthRatio float64
	PeakNoise  float64
}

// ShieldWidthSweep measures victim noise as the shield width scales
// relative to the signal width — the experiment behind the paper's
// "at least equal width" shielding rule.
func ShieldWidthSweep(e *core.Extractor, base Scenario, ratios []float64) ([]ShieldSweepPoint, error) {
	var out []ShieldSweepPoint
	for _, r := range ratios {
		if r <= 0 {
			return nil, fmt.Errorf("xtalk: width ratio %g must be positive", r)
		}
		sc := base
		sc.Victim.GroundWidth = r * base.Victim.SignalWidth
		res, err := Run(e, sc)
		if err != nil {
			return nil, fmt.Errorf("xtalk: ratio %g: %w", r, err)
		}
		out = append(out, ShieldSweepPoint{WidthRatio: r, PeakNoise: res.PeakNoise})
	}
	return out, nil
}
