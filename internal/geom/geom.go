// Package geom models the interconnect geometry the extractor works
// on: rectangular traces, blocks of coplanar traces (Fig. 4 of the
// paper), metal layers, ground planes, and the shielding
// configurations used as clocktree building blocks (coplanar waveguide,
// Fig. 8; microstrip, Fig. 9; and stripline).
//
// Coordinate convention: traces run along the x axis ("length"), are
// laid out across y ("width" direction, where spacings are measured),
// and stacked in z (layer thicknesses). All dimensions are SI metres.
package geom

import (
	"errors"
	"fmt"
	"math"
)

// CheckFinite rejects a NaN or infinite value, naming the field.
func CheckFinite(field string, v float64) error {
	switch {
	case math.IsNaN(v):
		return fmt.Errorf("%s is NaN", field)
	case math.IsInf(v, 0):
		return fmt.Errorf("%s is infinite", field)
	}
	return nil
}

// CheckPositive rejects a NaN, infinite or non-positive value, naming
// the field. NaN slips past a plain `v <= 0` comparison and would
// otherwise fail deep in the field solver.
func CheckPositive(field string, v float64) error {
	if err := CheckFinite(field, v); err != nil {
		return err
	}
	if v <= 0 {
		return fmt.Errorf("%s = %g must be positive", field, v)
	}
	return nil
}

// firstErr returns the first non-nil error of errs after prefix.
func firstErr(prefix string, errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("%s %w", prefix, err)
		}
	}
	return nil
}

// Trace is a rectangular conductor of Length along x, Width across y
// and Thickness in z. X0 is the axial position of its near end, Y the
// coordinate of its width centre and Z the coordinate of its thickness
// centre.
type Trace struct {
	X0, Y, Z                 float64
	Length, Width, Thickness float64
}

// Validate reports whether the trace has physically meaningful
// dimensions.
func (t Trace) Validate() error {
	return firstErr("geom: trace",
		CheckPositive("Length", t.Length), CheckPositive("Width", t.Width),
		CheckPositive("Thickness", t.Thickness),
		CheckFinite("X0", t.X0), CheckFinite("Y", t.Y), CheckFinite("Z", t.Z))
}

// X1 returns the axial position of the far end.
func (t Trace) X1() float64 { return t.X0 + t.Length }

// CrossSectionArea returns w·t in m².
func (t Trace) CrossSectionArea() float64 { return t.Width * t.Thickness }

// EdgeToEdgeSpacing returns the y gap between the facing edges of t
// and o. A negative value means the traces overlap in y.
func (t Trace) EdgeToEdgeSpacing(o Trace) float64 {
	d := t.Y - o.Y
	if d < 0 {
		d = -d
	}
	return d - (t.Width+o.Width)/2
}

// Layer describes one routing layer of the technology stack.
type Layer struct {
	Name string
	// Z is the height of the layer's thickness centre above the
	// substrate reference, in metres.
	Z float64
	// Thickness is the nominal metal thickness.
	Thickness float64
	// Rho is the metal resistivity in Ω·m.
	Rho float64
	// MinWidth and MinSpacing are design-rule floors used by table
	// generators to choose sensible sweep ranges.
	MinWidth, MinSpacing float64
}

// GroundPlane describes a wide AC-ground conductor (continuous or
// densely meshed power/ground plane) in a vertically neighbouring
// layer, per Section II.B of the paper. It spans the full extent of
// the block above/below it.
type GroundPlane struct {
	// Z is the height of the plane's thickness centre.
	Z float64
	// Thickness of the plane metal.
	Thickness float64
	// Width of the plane across y. Must comfortably exceed the block
	// width for the local-ground-plane approximation to hold.
	Width float64
	// Rho is the plane resistivity in Ω·m.
	Rho float64
}

// Validate reports whether the plane is physically meaningful.
func (p GroundPlane) Validate() error {
	return firstErr("geom: ground plane",
		CheckPositive("Thickness", p.Thickness), CheckPositive("Width", p.Width),
		CheckPositive("Rho", p.Rho), CheckFinite("Z", p.Z))
}

// Technology is the stack description: ordered layers (bottom to top)
// and the inter-layer dielectric constant.
type Technology struct {
	Name   string
	Layers []Layer
	// EpsRel is the relative permittivity of the inter-layer
	// dielectric (SiO2 ≈ 3.9).
	EpsRel float64
}

// LayerByName finds a layer in the stack.
func (t *Technology) LayerByName(name string) (Layer, error) {
	for _, l := range t.Layers {
		if l.Name == name {
			return l, nil
		}
	}
	return Layer{}, fmt.Errorf("geom: technology %q has no layer %q", t.Name, name)
}

// Shielding enumerates the clocktree interconnect building blocks the
// paper considers.
type Shielding int

const (
	// ShieldNone is an isolated multiconductor system with no local
	// ground plane (returns are the coplanar ground traces only).
	ShieldNone Shielding = iota
	// ShieldMicrostrip adds a local ground plane below (layer N-2),
	// Fig. 9.
	ShieldMicrostrip
	// ShieldStripline adds local ground planes both below (N-2) and
	// above (N+2).
	ShieldStripline
)

// String implements fmt.Stringer.
func (s Shielding) String() string {
	switch s {
	case ShieldNone:
		return "coplanar"
	case ShieldMicrostrip:
		return "microstrip"
	case ShieldStripline:
		return "stripline"
	default:
		return fmt.Sprintf("Shielding(%d)", int(s))
	}
}

// ParseShielding is the inverse of Shielding.String: it reads
// "coplanar", "microstrip" or "stripline".
func ParseShielding(s string) (Shielding, error) {
	switch s {
	case "coplanar":
		return ShieldNone, nil
	case "microstrip":
		return ShieldMicrostrip, nil
	case "stripline":
		return ShieldStripline, nil
	}
	return 0, fmt.Errorf("bad shielding %q (want coplanar, microstrip or stripline)", s)
}

// Block is the extraction unit of Fig. 4: n coplanar traces of equal
// length in one layer, the two outermost of which are dedicated AC
// ground traces, optionally with ground planes above/below.
type Block struct {
	Traces []Trace
	// IsGround marks which traces are AC-grounded returns. By the
	// paper's convention the first and last are; interior signal
	// shields may be marked too.
	IsGround []bool
	// PlaneBelow/PlaneAbove are optional local ground planes
	// (Shielding configurations). Nil when absent.
	PlaneBelow, PlaneAbove *GroundPlane
	// Rho is the trace resistivity in Ω·m.
	Rho float64
}

// Validate checks structural invariants.
func (b *Block) Validate() error {
	if len(b.Traces) == 0 {
		return errors.New("geom: block has no traces")
	}
	if len(b.IsGround) != len(b.Traces) {
		return fmt.Errorf("geom: block has %d traces but %d ground flags", len(b.Traces), len(b.IsGround))
	}
	l := b.Traces[0].Length
	for i, tr := range b.Traces {
		if err := tr.Validate(); err != nil {
			return fmt.Errorf("trace %d: %w", i, err)
		}
		if tr.Length != l {
			return fmt.Errorf("geom: block traces must share one length, trace %d has %g != %g", i, tr.Length, l)
		}
	}
	grounds := 0
	for _, g := range b.IsGround {
		if g {
			grounds++
		}
	}
	if grounds == 0 && b.PlaneBelow == nil && b.PlaneAbove == nil {
		return errors.New("geom: block has no return path (no ground traces or planes)")
	}
	if p := b.PlaneBelow; p != nil {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("plane below: %w", err)
		}
	}
	if p := b.PlaneAbove; p != nil {
		if err := p.Validate(); err != nil {
			return fmt.Errorf("plane above: %w", err)
		}
	}
	return firstErr("geom: block", CheckPositive("Rho", b.Rho))
}

// SignalIndices returns the indices of non-ground traces.
func (b *Block) SignalIndices() []int {
	var out []int
	for i, g := range b.IsGround {
		if !g {
			out = append(out, i)
		}
	}
	return out
}

// GroundIndices returns the indices of ground traces.
func (b *Block) GroundIndices() []int {
	var out []int
	for i, g := range b.IsGround {
		if g {
			out = append(out, i)
		}
	}
	return out
}

// BlockStorage holds the traces, ground flags and planes of one of
// the three-trace building blocks, so that a caller who owns it (on
// its stack, say) lays a block out without allocating. Coplanar,
// Microstrip and Stripline each lay their block out in the storage and
// return a Block whose slices and plane pointers refer into it: the
// block is valid while the storage is, and the next layout in the same
// storage overwrites it.
type BlockStorage struct {
	traces       [3]Trace
	isGround     [3]bool
	below, above GroundPlane
}

// Coplanar lays out the paper's basic three-trace building block
// (Fig. 8): ground / signal / ground in one layer. The signal trace is
// centred at y = 0 with its near end at x = 0 and thickness centre at
// z.
func (st *BlockStorage) Coplanar(length, sigWidth, gndWidth, spacing, thickness, z, rho float64) Block {
	dy := sigWidth/2 + spacing + gndWidth/2
	st.traces = [3]Trace{
		{X0: 0, Y: -dy, Z: z, Length: length, Width: gndWidth, Thickness: thickness},
		{X0: 0, Y: 0, Z: z, Length: length, Width: sigWidth, Thickness: thickness},
		{X0: 0, Y: +dy, Z: z, Length: length, Width: gndWidth, Thickness: thickness},
	}
	st.isGround = [3]bool{true, false, true}
	return Block{Traces: st.traces[:], IsGround: st.isGround[:], Rho: rho}
}

// Microstrip lays out the Fig. 9 building block: the coplanar block of
// Coplanar plus a local ground plane a distance planeGap below the
// bottom face of the traces (edge to edge), with the given plane
// thickness. The plane width defaults to three times the block width,
// wide enough to behave as a local plane.
func (st *BlockStorage) Microstrip(length, sigWidth, gndWidth, spacing, thickness, z, rho, planeGap, planeThickness float64) Block {
	b := st.Coplanar(length, sigWidth, gndWidth, spacing, thickness, z, rho)
	blockWidth := 2*gndWidth + sigWidth + 2*spacing
	st.below = GroundPlane{
		Z:         z - thickness/2 - planeGap - planeThickness/2,
		Thickness: planeThickness,
		Width:     3 * blockWidth,
		Rho:       rho,
	}
	b.PlaneBelow = &st.below
	return b
}

// Stripline lays out the microstrip block of Microstrip with a second,
// identical plane the same distance planeGap above the top face of the
// traces.
func (st *BlockStorage) Stripline(length, sigWidth, gndWidth, spacing, thickness, z, rho, planeGap, planeThickness float64) Block {
	b := st.Microstrip(length, sigWidth, gndWidth, spacing, thickness, z, rho, planeGap, planeThickness)
	st.above = st.below
	st.above.Z = z + thickness/2 + planeGap + planeThickness/2
	b.PlaneAbove = &st.above
	return b
}

// CoplanarWaveguide constructs the Fig. 8 block of
// BlockStorage.Coplanar in storage of its own.
func CoplanarWaveguide(length, sigWidth, gndWidth, spacing, thickness, z, rho float64) *Block {
	b := new(BlockStorage).Coplanar(length, sigWidth, gndWidth, spacing, thickness, z, rho)
	return &b
}

// Microstrip constructs the Fig. 9 block of BlockStorage.Microstrip in
// storage of its own.
func Microstrip(length, sigWidth, gndWidth, spacing, thickness, z, rho, planeGap, planeThickness float64) *Block {
	b := new(BlockStorage).Microstrip(length, sigWidth, gndWidth, spacing, thickness, z, rho, planeGap, planeThickness)
	return &b
}

// TraceArray constructs a block of n equal-width traces with uniform
// spacing, first and last marked as grounds — the Fig. 4/Fig. 5 bus
// structure. Trace centres are symmetric around y = 0.
func TraceArray(n int, length, width, spacing, thickness, z, rho float64) *Block {
	if n < 2 {
		panic("geom: TraceArray needs at least 2 traces")
	}
	pitch := width + spacing
	y0 := -pitch * float64(n-1) / 2
	b := &Block{
		Traces:   make([]Trace, n),
		IsGround: make([]bool, n),
		Rho:      rho,
	}
	for i := 0; i < n; i++ {
		b.Traces[i] = Trace{
			X0: 0, Y: y0 + float64(i)*pitch, Z: z,
			Length: length, Width: width, Thickness: thickness,
		}
	}
	b.IsGround[0] = true
	b.IsGround[n-1] = true
	return b
}
