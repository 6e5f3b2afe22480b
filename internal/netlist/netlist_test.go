package netlist

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestWaveforms(t *testing.T) {
	if DC(2.5).At(99) != 2.5 {
		t.Error("DC waveform wrong")
	}
	r := Ramp{V0: 0, V1: 1, Start: 10, Rise: 20}
	cases := []struct{ t, want float64 }{
		{0, 0}, {10, 0}, {20, 0.5}, {30, 1}, {100, 1},
	}
	for _, c := range cases {
		if got := r.At(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Ramp.At(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	// Zero-rise ramp is a step.
	s := Ramp{V0: 0, V1: 1, Start: 5, Rise: 0}
	if s.At(4.999) != 0 || s.At(5.001) != 1 {
		t.Error("zero-rise ramp is not a step")
	}
	p := PWL{T: []float64{0, 1, 3}, V: []float64{0, 2, -2}}
	for _, c := range []struct{ t, want float64 }{
		{-1, 0}, {0.5, 1}, {1, 2}, {2, 0}, {5, -2},
	} {
		if got := p.At(c.t); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("PWL.At(%g) = %g, want %g", c.t, got, c.want)
		}
	}
	if (PWL{}).At(1) != 0 {
		t.Error("empty PWL must be zero")
	}
}

func TestValidateCatchesBadElements(t *testing.T) {
	cases := []struct {
		name  string
		build func(n *Netlist)
		want  string
	}{
		{"negative R", func(n *Netlist) { n.AddR("r", "a", "b", -1) }, "resistor"},
		{"shorted R", func(n *Netlist) { n.AddR("r", "a", "a", 1) }, "shorted"},
		{"zero C", func(n *Netlist) { n.AddC("c", "a", "b", 0) }, "capacitor"},
		{"zero L", func(n *Netlist) { n.AddL("l", "a", "b", 0) }, "inductor"},
		{"nil wave", func(n *Netlist) { n.AddV("v", "a", "b", nil) }, "waveform"},
		{"self mutual", func(n *Netlist) {
			i := n.AddL("l1", "a", "b", 1e-9)
			n.AddK("k", i, i, 1e-10)
		}, "itself"},
		{"k >= 1", func(n *Netlist) {
			i1 := n.AddL("l1", "a", "b", 1e-9)
			i2 := n.AddL("l2", "c", "d", 1e-9)
			n.AddK("k", i1, i2, 1.5e-9)
		}, "|k| >= 1"},
		{"dangling mutual", func(n *Netlist) {
			i1 := n.AddL("l1", "a", "b", 1e-9)
			n.AddK("k", i1, 7, 1e-10)
		}, "missing inductor"},
	}
	for _, c := range cases {
		n := New()
		c.build(n)
		err := n.Validate()
		if err == nil {
			t.Errorf("%s: Validate passed", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q lacks %q", c.name, err, c.want)
		}
	}
}

func TestNodesOrderAndGroundExclusion(t *testing.T) {
	n := New()
	n.AddV("v", "in", "0", DC(1))
	n.AddR("r", "in", "mid", 10)
	n.AddL("l", "mid", "out", 1e-9)
	n.AddC("c", "out", "gnd", 1e-15)
	nodes := n.Nodes()
	want := []string{"in", "mid", "out"}
	if len(nodes) != len(want) {
		t.Fatalf("Nodes = %v, want %v", nodes, want)
	}
	for i := range want {
		if nodes[i] != want[i] {
			t.Fatalf("Nodes = %v, want %v", nodes, want)
		}
	}
}

func TestAddLadderStructure(t *testing.T) {
	n := New()
	seg := SegmentRLC{R: 100, L: 4e-9, C: 1e-12}
	inds, err := n.AddLadder("s", "a", "b", seg, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(inds) != 4 {
		t.Fatalf("ladder created %d inductors, want 4", len(inds))
	}
	// Totals must be preserved.
	var rt, lt, ct float64
	for _, r := range n.Resistors {
		rt += r.R
	}
	for _, l := range n.Inductors {
		lt += l.L
	}
	for _, c := range n.Capacitors {
		ct += c.C
	}
	if math.Abs(rt-seg.R) > 1e-9 {
		t.Errorf("ladder R total %g, want %g", rt, seg.R)
	}
	if math.Abs(lt-seg.L) > 1e-18 {
		t.Errorf("ladder L total %g, want %g", lt, seg.L)
	}
	if math.Abs(ct-seg.C) > 1e-24 {
		t.Errorf("ladder C total %g, want %g", ct, seg.C)
	}
	if err := n.Validate(); err != nil {
		t.Errorf("ladder netlist invalid: %v", err)
	}
}

func TestAddLadderRCOnly(t *testing.T) {
	n := New()
	inds, err := n.AddLadder("s", "a", "b", SegmentRLC{R: 10, L: 0, C: 1e-13}, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(inds) != 0 {
		t.Errorf("RC ladder created inductors: %v", inds)
	}
	if len(n.Resistors) != 3 {
		t.Errorf("RC ladder has %d resistors, want 3", len(n.Resistors))
	}
}

func TestAddLadderErrors(t *testing.T) {
	n := New()
	if _, err := n.AddLadder("s", "a", "b", SegmentRLC{R: 1, C: 1e-15}, 0); err == nil {
		t.Error("accepted zero sections")
	}
	if _, err := n.AddLadder("s", "a", "a", SegmentRLC{R: 1, C: 1e-15}, 1); err == nil {
		t.Error("accepted coincident endpoints")
	}
	if _, err := n.AddLadder("s", "a", "b", SegmentRLC{R: 0, C: 1e-15}, 1); err == nil {
		t.Error("accepted zero resistance segment")
	}
	if _, err := n.AddLadder("s", "a", "b", SegmentRLC{R: 1, L: -1, C: 1e-15}, 1); err == nil {
		t.Error("accepted negative inductance segment")
	}
}

// Non-finite values fail every sign test NaN-style, so Validate names
// them explicitly: a NaN or Inf R, L or C is out of range.
func TestSegmentRLCValidateRejectsNonFinite(t *testing.T) {
	ok := SegmentRLC{R: 1, L: 1e-9, C: 1e-15}
	if err := ok.Validate(); err != nil {
		t.Fatalf("finite segment rejected: %v", err)
	}
	for _, bad := range []SegmentRLC{
		{R: math.NaN(), L: 1e-9, C: 1e-15},
		{R: math.Inf(1), L: 1e-9, C: 1e-15},
		{R: 1, L: math.NaN(), C: 1e-15},
		{R: 1, L: math.Inf(1), C: 1e-15},
		{R: 1, L: 1e-9, C: math.NaN()},
		{R: 1, L: 1e-9, C: math.Inf(1)},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("accepted non-finite segment %+v", bad)
		}
	}
}

// SetLadder over a built ladder leaves the netlist AddLadder would have
// built with the new values, for RLC and RC ladders and one section.
func TestSetLadderMatchesAddLadder(t *testing.T) {
	for _, c := range []struct {
		old, seg SegmentRLC
		sections int
	}{
		{SegmentRLC{R: 100, L: 4e-9, C: 1e-12}, SegmentRLC{R: 37, L: 1.3e-9, C: 0.7e-12}, 5},
		{SegmentRLC{R: 10, C: 1e-13}, SegmentRLC{R: 12.5, C: 3e-13}, 3},
		{SegmentRLC{R: 5, L: 1e-9, C: 1e-13}, SegmentRLC{R: 6, L: 2e-9, C: 2e-13}, 1},
	} {
		build := func(seg SegmentRLC) *Netlist {
			n := New()
			n.AddR("rd", "in", "a", 40)
			if _, err := n.AddLadder("w", "a", "b", seg, c.sections); err != nil {
				t.Fatal(err)
			}
			n.AddC("cl", "b", Ground, 1e-15)
			return n
		}
		got, want := build(c.old), build(c.seg)
		got.SetLadder(1, 0, 0, c.seg, c.sections)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("%d sections: SetLadder gives %+v, AddLadder %+v", c.sections, got, want)
		}
	}
}
