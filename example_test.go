package clockrlc_test

import (
	"fmt"
	"log"

	"clockrlc"
)

// Example_extractSegment shows the core flow: build tables for a
// technology at the significant frequency, then extract a shielded
// clock segment's R, L and C.
func Example_extractSegment() {
	tech := clockrlc.Technology{
		Thickness:      clockrlc.Um(2),
		Rho:            clockrlc.RhoCopper,
		EpsRel:         clockrlc.EpsSiO2,
		CapHeight:      clockrlc.Um(2),
		PlaneGap:       clockrlc.Um(2),
		PlaneThickness: clockrlc.Um(1),
	}
	freq := clockrlc.SignificantFrequency(50 * clockrlc.PicoSecond)
	axes := clockrlc.TableAxes{
		Widths:   clockrlc.LogAxis(clockrlc.Um(1), clockrlc.Um(12), 3),
		Spacings: clockrlc.LogAxis(clockrlc.Um(0.5), clockrlc.Um(4), 3),
		Lengths:  clockrlc.LogAxis(clockrlc.Um(500), clockrlc.Um(4000), 4),
	}
	ext, err := clockrlc.NewExtractor(tech, freq, axes,
		[]clockrlc.Shielding{clockrlc.ShieldNone})
	if err != nil {
		log.Fatal(err)
	}
	rlc, err := ext.SegmentRLC(clockrlc.Segment{
		Length:      clockrlc.Um(2000),
		SignalWidth: clockrlc.Um(8),
		GroundWidth: clockrlc.Um(4),
		Spacing:     clockrlc.Um(1),
		Shielding:   clockrlc.ShieldNone,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("R ≈ %.1f Ω, L ≈ %.1f nH, C ≈ %.1f pF\n",
		rlc.R, clockrlc.ToNH(rlc.L), rlc.C/1e-12)
	// Output:
	// R ≈ 2.5 Ω, L ≈ 0.5 nH, C ≈ 0.8 pF
}

// Example_partialInductance evaluates the exact closed-form partial
// inductances the table builder rests on.
func Example_partialInductance() {
	bar := clockrlc.Bar{
		O: [3]float64{0, 0, 0},
		L: clockrlc.Um(1000), W: clockrlc.Um(1), T: clockrlc.Um(1),
	}
	neighbour := bar
	neighbour.O[1] = clockrlc.Um(5)
	fmt.Printf("self ≈ %.2f nH, mutual at 5 µm ≈ %.2f nH\n",
		clockrlc.ToNH(clockrlc.SelfInductance(bar)),
		clockrlc.ToNH(clockrlc.MutualInductance(bar, neighbour)))
	// Output:
	// self ≈ 1.48 nH, mutual at 5 µm ≈ 1.00 nH
}

// Example_screen shows the cheap pre-extraction decision.
func Example_screen() {
	line := clockrlc.DelayLine{Rd: 15, R: 5, L: 2e-9, C: 1e-12, Cl: 50e-15}
	v, err := clockrlc.ScreenInductance(line, 40e-12)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(v.Matters)
	// Output:
	// true
}

// Example_quickstart is the README quickstart end to end: build the
// tables for one layer at the paper's 0.32/tr frequency, extract a
// 3 mm coplanar-waveguide clock segment, and simulate a 40 Ω buffer
// driving it into a 50 fF sink with and without the inductance.
func Example_quickstart() {
	tech := clockrlc.Technology{
		Thickness:      clockrlc.Um(2),
		Rho:            clockrlc.RhoCopper,
		EpsRel:         clockrlc.EpsSiO2,
		CapHeight:      clockrlc.Um(2),
		PlaneGap:       clockrlc.Um(2),
		PlaneThickness: clockrlc.Um(1),
	}
	freq := clockrlc.SignificantFrequency(50 * clockrlc.PicoSecond)
	axes := clockrlc.TableAxes{
		Widths:   clockrlc.LogAxis(clockrlc.Um(1), clockrlc.Um(14), 4),
		Spacings: clockrlc.LogAxis(clockrlc.Um(0.5), clockrlc.Um(10), 4),
		Lengths:  clockrlc.LogAxis(clockrlc.Um(100), clockrlc.Um(6000), 6),
	}
	ext, err := clockrlc.NewExtractor(tech, freq, axes,
		[]clockrlc.Shielding{clockrlc.ShieldNone})
	if err != nil {
		log.Fatal(err)
	}
	rlc, err := ext.SegmentRLC(clockrlc.Segment{
		Length:      clockrlc.Um(3000),
		SignalWidth: clockrlc.Um(8),
		GroundWidth: clockrlc.Um(4),
		Spacing:     clockrlc.Um(1),
		Shielding:   clockrlc.ShieldNone,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("extracted: R = %.2f Ω, L = %.3f nH, C = %.1f fF\n",
		rlc.R, clockrlc.ToNH(rlc.L), clockrlc.ToFF(rlc.C))

	for _, withL := range []bool{false, true} {
		seg := rlc
		if !withL {
			seg.L = 0
		}
		nl := clockrlc.NewNetlist()
		nl.AddV("vsrc", "drv", "0", clockrlc.Ramp{V0: 0, V1: 1, Start: 5e-12, Rise: 50e-12})
		nl.AddR("rdrv", "drv", "in", 40)
		if _, err := nl.AddLadder("seg", "in", "out", seg, 8); err != nil {
			log.Fatal(err)
		}
		nl.AddC("cload", "out", "0", 50*clockrlc.FemtoFarad)
		res, err := clockrlc.Transient(nl, 0.25e-12, 600e-12, []string{"out"})
		if err != nil {
			log.Fatal(err)
		}
		vout, err := res.Waveform("out")
		if err != nil {
			log.Fatal(err)
		}
		d, err := clockrlc.DelayFromT0(res.Time, vout, 0, 1)
		if err != nil {
			log.Fatal(err)
		}
		over, under := clockrlc.Overshoot(vout, 0, 1)
		fmt.Printf("withL=%-5v sink 50%% arrival %.1f ps, overshoot %.1f%%, undershoot %.1f%%\n",
			withL, clockrlc.ToPS(d), over*100, under*100)
	}
	// Output:
	// extracted: R = 3.69 Ω, L = 0.842 nH, C = 1228.2 fF
	// withL=false sink 50% arrival 69.3 ps, overshoot 0.0%, undershoot 0.0%
	// withL=true  sink 50% arrival 71.6 ps, overshoot 0.0%, undershoot 0.0%
}
