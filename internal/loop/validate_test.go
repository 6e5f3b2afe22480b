package loop

import (
	"math"
	"strings"
	"testing"

	"clockrlc/internal/geom"
	"clockrlc/internal/peec"
	"clockrlc/internal/units"
)

// TestNonFiniteInputsStopBeforeTheSolver checks every gate in front
// of the field solver: a NaN, infinite or non-positive dimension,
// resistivity or frequency, and a non-finite coordinate, is refused
// with an error naming the field instead of reaching the matrix
// assembly (where it surfaced as a non-finite linalg entry).
func TestNonFiniteInputsStopBeforeTheSolver(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	bar := peec.Bar{Axis: peec.AxisX, L: units.Um(500), W: units.Um(2), T: units.Um(1)}
	withBar := func(f func(*peec.Bar)) peec.Bar { b := bar; f(&b); return b }
	trace := geom.Trace{Z: units.Um(1), Length: units.Um(500), Width: units.Um(2), Thickness: units.Um(2)}
	plane := geom.GroundPlane{Z: units.Um(-2.5), Thickness: units.Um(1), Width: units.Um(100), Rho: units.RhoCopper}
	block := func(f func(*geom.Block)) *geom.Block {
		p := plane
		b := &geom.Block{Traces: []geom.Trace{trace}, IsGround: []bool{false}, PlaneBelow: &p, Rho: units.RhoCopper}
		f(b)
		return b
	}
	solve := func(rho, f float64) error {
		ret := withBar(func(b *peec.Bar) { b.O[1] = units.Um(4) })
		_, err := Solve([]peec.Bar{bar, ret}, []Role{RoleSignal, RoleReturn}, []float64{units.RhoCopper, rho}, f)
		return err
	}
	solveBlock := func(b *geom.Block, f float64) error {
		_, err := SolveBlock(b, 0, Options{Frequency: f})
		return err
	}
	effectiveRL := func(b peec.Bar, rho, f float64) error {
		_, err := peec.EffectiveRL(b, rho, f, 2, 1)
		return err
	}
	cases := []struct {
		name string
		err  error
		want string // "" for a valid input
	}{
		{"valid bar", bar.Validate(), ""},
		{"bar L NaN", withBar(func(b *peec.Bar) { b.L = nan }).Validate(), "bar L is NaN"},
		{"bar W +Inf", withBar(func(b *peec.Bar) { b.W = inf }).Validate(), "bar W is infinite"},
		{"bar T zero", withBar(func(b *peec.Bar) { b.T = 0 }).Validate(), "bar T = 0 must be positive"},
		{"bar corner NaN", withBar(func(b *peec.Bar) { b.O[2] = nan }).Validate(), "bar O[2] is NaN"},
		{"trace Width NaN", geom.Trace{Length: 1, Width: nan, Thickness: 1}.Validate(), "trace Width is NaN"},
		{"trace Length -Inf", geom.Trace{Length: -inf, Width: 1, Thickness: 1}.Validate(), "trace Length is infinite"},
		{"trace Y NaN", geom.Trace{Y: nan, Length: 1, Width: 1, Thickness: 1}.Validate(), "trace Y is NaN"},
		{"plane Thickness NaN", geom.GroundPlane{Thickness: nan, Width: 1, Rho: 1}.Validate(), "ground plane Thickness is NaN"},
		{"plane Rho NaN", geom.GroundPlane{Thickness: 1, Width: 1, Rho: nan}.Validate(), "ground plane Rho is NaN"},
		{"plane Z +Inf", geom.GroundPlane{Z: inf, Thickness: 1, Width: 1, Rho: 1}.Validate(), "ground plane Z is infinite"},
		{"valid block", block(func(*geom.Block) {}).Validate(), ""},
		{"block Rho NaN", block(func(b *geom.Block) { b.Rho = nan }).Validate(), "block Rho is NaN"},
		{"block Rho zero", block(func(b *geom.Block) { b.Rho = 0 }).Validate(), "block Rho = 0 must be positive"},
		{"EffectiveRL", effectiveRL(bar, units.RhoCopper, 3.2e9), ""},
		{"EffectiveRL rho NaN", effectiveRL(bar, nan, 3.2e9), "resistivity is NaN"},
		{"EffectiveRL f NaN", effectiveRL(bar, units.RhoCopper, nan), "frequency is NaN"},
		{"EffectiveRL bar W NaN", effectiveRL(withBar(func(b *peec.Bar) { b.W = nan }), units.RhoCopper, 3.2e9), "bar W is NaN"},
		{"Solve", solve(units.RhoCopper, 3.2e9), ""},
		{"Solve rho NaN", solve(nan, 3.2e9), "bar 1: resistivity is NaN"},
		{"Solve f NaN", solve(units.RhoCopper, nan), "frequency is NaN"},
		{"Solve f +Inf", solve(units.RhoCopper, inf), "frequency is infinite"},
		{"SolveBlock", solveBlock(block(func(*geom.Block) {}), 3.2e9), ""},
		{"SolveBlock f NaN", solveBlock(block(func(*geom.Block) {}), nan), "Options.Frequency is NaN"},
		{"SolveBlock trace Thickness NaN", solveBlock(block(func(b *geom.Block) { b.Traces[0].Thickness = nan }), 3.2e9), "trace Thickness is NaN"},
		{"SolveBlock plane Rho NaN", solveBlock(block(func(b *geom.Block) { b.PlaneBelow.Rho = nan }), 3.2e9), "ground plane Rho is NaN"},
	}
	for _, c := range cases {
		switch {
		case c.want == "" && c.err != nil:
			t.Errorf("%s: %v", c.name, c.err)
		case c.want != "" && c.err == nil:
			t.Errorf("%s: accepted", c.name)
		case c.want != "" && !strings.Contains(c.err.Error(), c.want):
			t.Errorf("%s: error %q does not say %q", c.name, c.err, c.want)
		}
	}
}
