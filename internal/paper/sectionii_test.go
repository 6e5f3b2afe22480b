package paper

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"

	"clockrlc/internal/bus"
	"clockrlc/internal/netlist"
	"clockrlc/internal/sim"
	"clockrlc/internal/units"
	"clockrlc/internal/xtalk"
)

// bitSum hashes the IEEE-754 bits of its float64 and []float64
// arguments, each slice prefixed by its length.
func bitSum(t *testing.T, parts ...any) string {
	t.Helper()
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, p := range parts {
		switch v := p.(type) {
		case float64:
			put(math.Float64bits(v))
		case []float64:
			put(uint64(len(v)))
			for _, x := range v {
				put(math.Float64bits(x))
			}
		default:
			t.Fatalf("bitSum: unsupported %T", p)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// sectionIISums are the SHA-256 sums of every result the sectioned
// PEEC netlists (Section II) feed, recorded on amd64 at GOAMD64=v1.
var sectionIISums = map[string]string{
	"E1/calibrated":             "beba12f385158a7b8baf732a3d364cdaf9faeca648332ead19b7d34d811b6474",
	"E1/calibratedPartial":      "285faf7e7e36f3c52cc203a9463b99bd6778c92da0f19cfa66189a1cbf3e4202",
	"E1/extracted":              "1578caedde4c6e7d09a256c7a371e2c73d99c4ea7706ab1064e591a44e4b85bb",
	"E11/ratio 0.25":            "b441202856895792b9045875248d53696760a4f68dd21f09b8c2e90bd7b4be97",
	"E11/ratio 0.5":             "5d418e51ef6ddfaf747ef8a9542ed3e013c14e75cff84e58bad91d5ea9d52d60",
	"E11/ratio 1":               "f8ae93855f8e7d70060c3ec0e0df88d9b4ff5b8ba37aea554c582931240b5170",
	"E11/ratio 2":               "27c8ee8947835d8b65738015e2c80fcfffb1f1a22b76830b9c4db79d52f4f675",
	"E11/unshielded":            "da894ce365b3103887b0968d65bfa7514153d5cad55f9265263dd9a06ed8914b",
	"E13/aggressors [0 1 3 4]":  "1f64fae9af42f529b2ee4b6973f8823f5454a1ca971bca02927bf69d8a69d65a",
	"E13/aggressors [0]":        "3ef00d1908d13d858678e1a385fb5b13d2c5f006b4089172b182d6e09230ffe0",
	"E13/aggressors [1]":        "f998be61cdf64d55c490191fad01b83402ef3e6b7455c830a43900d0045a3063",
	"E13/aggressors [4]":        "730ff34dc5c9a8cb42d3f35f17d02a3f6f5fcea31f5303dca9ec899d70bdfa3f",
	"PartialNetlist/8 sections": "1330ec685299fc6c97effa9a7a422c63ec202fa47f3238160ebe0513ba2f06e9",
}

// TestSectionIINetlistsBitIdentical pins E1's three variants, E11's
// crosstalk runs, E13's bus runs and a transient of an 8-section
// PartialNetlist of the Fig. 1 segment to the bit: a change to how the
// netlists are built must leave every delay, peak and waveform sample
// as it is.
func TestSectionIINetlistsBitIdentical(t *testing.T) {
	if !exactFloatBuild {
		t.Skip("sums recorded on amd64 at GOAMD64=v1; a build that fuses multiply-adds rounds differently")
	}
	e := extractor(t)
	got := map[string]string{}

	fig, err := Fig23(e)
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range map[string]Fig23Variant{
		"extracted":         fig.Extracted,
		"calibrated":        fig.Calibrated,
		"calibratedPartial": fig.CalibratedPartial,
	} {
		got["E1/"+name] = bitSum(t, v.DelayRC, v.DelayRLC, v.OvershootRLC, v.UndershootRLC, v.OvershootRC,
			v.Time, v.InRC, v.OutRC, v.InRLC, v.OutRLC)
	}

	for _, r := range []float64{0.25, 0.5, 1, 2} {
		sc := xtalkScenario()
		sc.Victim.GroundWidth = r * sc.Victim.SignalWidth
		res, err := xtalk.Run(e, sc)
		if err != nil {
			t.Fatal(err)
		}
		got[fmt.Sprintf("E11/ratio %g", r)] = bitSum(t, res.PeakNoise, res.Time, res.VictimSink)
	}
	un := xtalkScenario()
	un.Unshielded = true
	res, err := xtalk.Run(e, un)
	if err != nil {
		t.Fatal(err)
	}
	got["E11/unshielded"] = bitSum(t, res.PeakNoise, res.Time, res.VictimSink)

	// E13's bus, as BusNoise states it.
	spec := bus.Spec{
		N:           5,
		Length:      units.Um(2000),
		SignalWidth: units.Um(2),
		GroundWidth: units.Um(2),
		Spacing:     units.Um(1),
		Sections:    5,
		RiseTime:    RiseTime,
		DriverRes:   DriverRes,
	}
	peaks := map[string]float64{}
	for _, aggs := range [][]int{{1}, {0, 1, 3, 4}, {0}, {4}} {
		res, err := bus.Noise(e, spec, aggs, 2)
		if err != nil {
			t.Fatal(err)
		}
		key := fmt.Sprint(aggs)
		peaks[key] = res.Peak[2]
		got["E13/aggressors "+key] = bitSum(t, res.Peak, res.Time, res.V)
	}
	e13, err := BusNoise(e)
	if err != nil {
		t.Fatal(err)
	}
	if e13.PeakAdjacent != peaks["[1]"] || e13.PeakStorm != peaks["[0 1 3 4]"] {
		t.Fatalf("the restated spec is not E13's: BusNoise peaks %g, %g; here %g, %g",
			e13.PeakAdjacent, e13.PeakStorm, peaks["[1]"], peaks["[0 1 3 4]"])
	}

	nl := netlist.New()
	nl.AddV("vsrc", "drv", netlist.Ground, netlist.Ramp{V0: 0, V1: Vdd, Start: 10e-12, Rise: RiseTime})
	nl.AddR("rdrv", "drv", "in", DriverRes)
	if err := e.PartialNetlist(nl, "p", "in", "out", Fig1Segment(), 8); err != nil {
		t.Fatal(err)
	}
	nl.AddC("cl", "out", netlist.Ground, SinkCap)
	tr, err := sim.Transient(nl, 0.5e-12, 500e-12, []string{"in", "out"})
	if err != nil {
		t.Fatal(err)
	}
	in, _ := tr.Waveform("in")
	out, _ := tr.Waveform("out")
	got["PartialNetlist/8 sections"] = bitSum(t, tr.Time, in, out)

	for k, sum := range got {
		if want, ok := sectionIISums[k]; !ok {
			t.Errorf("%s: no recorded sum (got %s)", k, sum)
		} else if sum != want {
			t.Errorf("%s: sum %s, recorded %s", k, sum, want)
		}
	}
	if len(got) != len(sectionIISums) {
		t.Errorf("%d sums computed, %d recorded", len(got), len(sectionIISums))
	}
}
