package core

// Fuzz the geometry gates. Segment.Validate and Technology.Validate
// stand between user input and the field solver; whatever the fuzzer
// throws at them they must either reject with ErrBadGeometry or accept
// only values the solver can actually consume (finite and strictly
// positive). A NaN that slips past here surfaces much later as a
// cryptic numerical failure or a silently wrong table entry. Past
// both gates, SegmentCap must give what the heap block and
// capmodel.BlockCaps give, bit for bit, or fail with the same error.

import (
	"errors"
	"math"
	"testing"

	"clockrlc/internal/geom"
	"clockrlc/internal/units"
)

func physical(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0) && v > 0
}

func FuzzGeometryValidate(f *testing.F) {
	f.Add(units.Um(2000), units.Um(8), units.Um(4), units.Um(1), byte(0),
		units.Um(2), units.RhoCopper, units.EpsSiO2, units.Um(2))
	f.Add(math.NaN(), units.Um(8), units.Um(4), units.Um(1), byte(1),
		units.Um(2), units.RhoCopper, units.EpsSiO2, units.Um(2))
	f.Add(units.Um(2000), math.Inf(1), units.Um(4), units.Um(1), byte(2),
		units.Um(2), units.RhoCopper, units.EpsSiO2, units.Um(2))
	f.Add(0.0, -1.0, 0.0, -0.0, byte(0), math.NaN(), math.Inf(-1), 0.0, -5.0)
	// 1 cm widths place the traces 1e-2 m apart: a 1e-19 m gap rounds
	// to zero.
	f.Add(units.Um(2000), 1e-2, 1e-2, 1e-19, byte(1),
		units.Um(2), units.RhoCopper, units.EpsSiO2, units.Um(2))
	f.Fuzz(func(t *testing.T, length, wsig, wgnd, sp float64, shield byte,
		th, rho, eps, caph float64) {
		seg := Segment{
			Length:      length,
			SignalWidth: wsig,
			GroundWidth: wgnd,
			Spacing:     sp,
			Shielding:   geom.Shielding(shield % 3),
		}
		if err := seg.Validate(); err != nil {
			if !errors.Is(err, ErrBadGeometry) {
				t.Fatalf("segment rejection %v is not ErrBadGeometry", err)
			}
		} else {
			for _, v := range []float64{seg.Length, seg.SignalWidth, seg.GroundWidth, seg.Spacing} {
				if !physical(v) {
					t.Fatalf("Segment.Validate accepted non-physical geometry: %+v", seg)
				}
			}
		}
		// The planes reuse the cap height and the thickness, so the
		// shielded blocks of a valid technology validate too.
		tech := Technology{
			Thickness:      th,
			Rho:            rho,
			EpsRel:         eps,
			CapHeight:      caph,
			PlaneGap:       caph,
			PlaneThickness: th,
		}
		if err := tech.Validate(); err != nil {
			if !errors.Is(err, ErrBadGeometry) {
				t.Fatalf("technology rejection %v is not ErrBadGeometry", err)
			}
		} else {
			for _, v := range []float64{tech.Thickness, tech.Rho, tech.EpsRel, tech.CapHeight} {
				if !physical(v) {
					t.Fatalf("Technology.Validate accepted non-physical values: %+v", tech)
				}
			}
			if seg.Validate() == nil {
				sameCapAsBlockCaps(t, &Extractor{Tech: tech}, seg)
			}
		}
	})
}
