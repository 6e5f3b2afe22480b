package geom

import (
	"math"
	"strings"
	"testing"
	"testing/quick"

	"clockrlc/internal/units"
)

func TestTraceValidate(t *testing.T) {
	good := Trace{Length: 1e-3, Width: 1e-6, Thickness: 1e-6}
	if err := good.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	for _, bad := range []Trace{
		{Length: 0, Width: 1e-6, Thickness: 1e-6},
		{Length: 1e-3, Width: -1, Thickness: 1e-6},
		{Length: 1e-3, Width: 1e-6, Thickness: 0},
	} {
		if err := bad.Validate(); err == nil {
			t.Errorf("invalid trace %+v accepted", bad)
		}
	}
}

func TestEdgeToEdgeSpacing(t *testing.T) {
	a := Trace{Y: 0, Width: units.Um(10), Length: 1, Thickness: 1e-6}
	b := Trace{Y: units.Um(8.5), Width: units.Um(5), Length: 1, Thickness: 1e-6}
	// centres 8.5 µm apart, half-widths 5 + 2.5 → spacing 1 µm.
	got := a.EdgeToEdgeSpacing(b)
	if math.Abs(got-units.Um(1)) > 1e-12 {
		t.Errorf("spacing = %g, want 1 µm", got)
	}
	// Symmetric.
	if d := b.EdgeToEdgeSpacing(a); math.Abs(d-got) > 1e-15 {
		t.Errorf("spacing not symmetric: %g vs %g", d, got)
	}
}

func TestCoplanarWaveguideFig1Geometry(t *testing.T) {
	// The Fig. 1 configuration: 6000 µm long, 2 µm thick, 10 µm signal,
	// 5 µm grounds, 1 µm spacing.
	b := CoplanarWaveguide(units.Um(6000), units.Um(10), units.Um(5), units.Um(1), units.Um(2), 0, units.RhoCopper)
	if err := b.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if len(b.Traces) != 3 {
		t.Fatalf("trace count = %d", len(b.Traces))
	}
	sig := b.Traces[1]
	if sig.Width != units.Um(10) {
		t.Errorf("signal width = %g", sig.Width)
	}
	// Edge-to-edge spacing between signal and each ground must be 1 µm.
	for _, gi := range []int{0, 2} {
		s := sig.EdgeToEdgeSpacing(b.Traces[gi])
		if math.Abs(s-units.Um(1)) > 1e-12 {
			t.Errorf("spacing to trace %d = %g, want 1 µm", gi, s)
		}
	}
	if got := b.SignalIndices(); len(got) != 1 || got[0] != 1 {
		t.Errorf("SignalIndices = %v", got)
	}
	if got := b.GroundIndices(); len(got) != 2 {
		t.Errorf("GroundIndices = %v", got)
	}
}

func TestMicrostripPlaneBelow(t *testing.T) {
	gap := units.Um(2)
	pt := units.Um(1)
	b := Microstrip(units.Um(1000), units.Um(4), units.Um(4), units.Um(1), units.Um(1), units.Um(5), units.RhoCopper, gap, pt)
	if err := b.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if b.PlaneBelow == nil {
		t.Fatal("microstrip has no plane below")
	}
	// Vertical clearance between trace bottom face and plane top face
	// must equal gap.
	traceBottom := b.Traces[1].Z - b.Traces[1].Thickness/2
	planeTop := b.PlaneBelow.Z + b.PlaneBelow.Thickness/2
	if math.Abs((traceBottom-planeTop)-gap) > 1e-15 {
		t.Errorf("plane gap = %g, want %g", traceBottom-planeTop, gap)
	}
	if b.PlaneAbove != nil {
		t.Error("microstrip must not have a plane above")
	}
}

// The stripline block is the microstrip block plus a plane the same
// gap above the traces' top face, laid out in caller-owned storage.
func TestStriplinePlaneAbove(t *testing.T) {
	gap := units.Um(2)
	pt := units.Um(1)
	var st BlockStorage
	b := st.Stripline(units.Um(1000), units.Um(4), units.Um(4), units.Um(1), units.Um(1), units.Um(5), units.RhoCopper, gap, pt)
	if err := b.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	ms := Microstrip(units.Um(1000), units.Um(4), units.Um(4), units.Um(1), units.Um(1), units.Um(5), units.RhoCopper, gap, pt)
	if *b.PlaneBelow != *ms.PlaneBelow {
		t.Errorf("plane below %+v, microstrip's %+v", *b.PlaneBelow, *ms.PlaneBelow)
	}
	traceTop := b.Traces[1].Z + b.Traces[1].Thickness/2
	planeBottom := b.PlaneAbove.Z - b.PlaneAbove.Thickness/2
	if math.Abs((planeBottom-traceTop)-gap) > 1e-15 {
		t.Errorf("plane gap above = %g, want %g", planeBottom-traceTop, gap)
	}
}

func TestTraceArraySymmetry(t *testing.T) {
	b := TraceArray(5, units.Um(1000), units.Um(2), units.Um(2), units.Um(1), 0, units.RhoCopper)
	if err := b.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	// Centres symmetric about 0.
	n := len(b.Traces)
	for i := 0; i < n/2; i++ {
		if math.Abs(b.Traces[i].Y+b.Traces[n-1-i].Y) > 1e-18 {
			t.Errorf("array not symmetric: y[%d]=%g y[%d]=%g", i, b.Traces[i].Y, n-1-i, b.Traces[n-1-i].Y)
		}
	}
	// Outer traces grounded, inner not.
	if !b.IsGround[0] || !b.IsGround[4] || b.IsGround[2] {
		t.Errorf("ground flags = %v", b.IsGround)
	}
}

func TestBlockValidateRejects(t *testing.T) {
	tr := Trace{Length: 1e-3, Width: 1e-6, Thickness: 1e-6}
	cases := []struct {
		name string
		b    *Block
		want string
	}{
		{"empty", &Block{}, "no traces"},
		{"flag mismatch", &Block{Traces: []Trace{tr}, IsGround: nil}, "ground flags"},
		{"mixed lengths", &Block{
			Traces:   []Trace{tr, {Length: 2e-3, Width: 1e-6, Thickness: 1e-6}},
			IsGround: []bool{true, false},
		}, "one length"},
		{"no return", &Block{Traces: []Trace{tr}, IsGround: []bool{false}}, "return path"},
		{"bad plane", &Block{
			Traces: []Trace{tr}, IsGround: []bool{true},
			PlaneBelow: &GroundPlane{},
		}, "plane below"},
	}
	for _, c := range cases {
		err := c.b.Validate()
		if err == nil {
			t.Errorf("%s: Validate accepted invalid block", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.name, err, c.want)
		}
	}
}

func TestLayerByName(t *testing.T) {
	tech := Technology{
		Name:   "t1",
		Layers: []Layer{{Name: "M5"}, {Name: "M6"}},
	}
	if _, err := tech.LayerByName("M6"); err != nil {
		t.Errorf("LayerByName(M6): %v", err)
	}
	if _, err := tech.LayerByName("M9"); err == nil {
		t.Error("LayerByName(M9) succeeded for missing layer")
	}
}

func TestShieldingString(t *testing.T) {
	if ShieldNone.String() != "coplanar" || ShieldMicrostrip.String() != "microstrip" ||
		ShieldStripline.String() != "stripline" {
		t.Error("Shielding.String mismatch")
	}
	if !strings.Contains(Shielding(42).String(), "42") {
		t.Error("unknown shielding should include its number")
	}
}

// Property: for any positive dimensions, the CPW constructor produces
// a valid block whose edge-to-edge spacings equal the request.
func TestQuickCoplanarWaveguide(t *testing.T) {
	f := func(a, b, c, d uint8) bool {
		length := units.Um(float64(a%100) + 10)
		sw := units.Um(float64(b%20)/2 + 0.5)
		gw := units.Um(float64(c%20)/2 + 0.5)
		sp := units.Um(float64(d%10)/2 + 0.25)
		blk := CoplanarWaveguide(length, sw, gw, sp, units.Um(1), 0, units.RhoCopper)
		if blk.Validate() != nil {
			return false
		}
		s := blk.Traces[1].EdgeToEdgeSpacing(blk.Traces[0])
		return math.Abs(s-sp) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestX1AndArea(t *testing.T) {
	tr := Trace{X0: units.Um(10), Length: units.Um(100), Width: units.Um(2), Thickness: units.Um(1)}
	if math.Abs(tr.X1()-units.Um(110)) > 1e-18 {
		t.Errorf("X1 = %g", tr.X1())
	}
	if math.Abs(tr.CrossSectionArea()-2e-12) > 1e-24 {
		t.Errorf("area = %g", tr.CrossSectionArea())
	}
}

func TestParseShieldingInvertsString(t *testing.T) {
	for _, sh := range []Shielding{ShieldNone, ShieldMicrostrip, ShieldStripline} {
		if got, err := ParseShielding(sh.String()); err != nil || got != sh {
			t.Errorf("ParseShielding(%q) = %v, %v; want %v", sh.String(), got, err, sh)
		}
	}
	for _, bad := range []string{"", "waveguide", "Coplanar", Shielding(42).String()} {
		if _, err := ParseShielding(bad); err == nil {
			t.Errorf("ParseShielding(%q) accepted an unknown name", bad)
		}
	}
}
