package clocktree

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"

	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
	"clockrlc/internal/units"
)

// seededMicrostripTree is a 3-level microstrip H-tree with a distinct
// load on every leaf, drawn from a fixed seed, so the leaf stages are
// all distinct transients.
func seededMicrostripTree(t *testing.T) (*Tree, map[int]float64) {
	t.Helper()
	seg := testSegment()
	seg.Shielding = geom.ShieldMicrostrip
	tr, err := NewTree(HTreeLevels(units.Um(4000), 3, seg), testBuffer(), sharedExtractor(t))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	loads := make(map[int]float64, 64)
	for i := 0; i < 64; i++ {
		loads[i] = 1 + 3*rng.Float64()
	}
	return tr, loads
}

// arrivalSum hashes the IEEE-754 bits of an analysis' statistics (the
// extremes with their leaves, the sums, the sample and the stage
// counts) and of the full arrivals slice.
func arrivalSum(st *ArrivalStats, arrivals []float64) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	putFloats := func(v []float64) {
		put(uint64(len(v)))
		for _, x := range v {
			put(math.Float64bits(x))
		}
	}
	putFloats([]float64{st.Min, st.Max, st.Sum, st.SumSq})
	putFloats(st.Sample)
	for _, n := range []int64{st.Leaves, st.MinLeaf, st.MaxLeaf, st.StagesSimulated, st.StagesDeduped} {
		put(uint64(n))
	}
	putFloats(arrivals)
	return hex.EncodeToString(h.Sum(nil))
}

// stageCircuitSums are the SHA-256 sums of arrivalSum for each case of
// TestStageCircuitsBitIdentical, recorded on amd64 at GOAMD64=v1.
var stageCircuitSums = map[string]string{
	"rc":                 "37158564a748e012f68be83ef361cf6f4da0ad6d17f5ca502da99c37e7a86f5b",
	"rlc":                "5d7ae8479791d53406caa6d08dbe5440fd00d17870d0c61f75cf34c7a29ac792",
	"rc/no-dedup":        "414d18e6ff7832e6262fddcd9f213c5f8f1cf913aa5f282cbe7e939193954872",
	"rlc/no-dedup":       "4dcbdeb7b75771931af8609b991a8760256fd024d69d4dd009e4e532b6d755d3",
	"rc/scale":           "b39aacdad5a85e935aab01cba3211f235cfa8f990f18301c20af8a69c635691f",
	"rlc/scale":          "4ab5dfd2dec88c2704f5dc6ce231bef3eaddd10b7d9cfa64ae068c2027e381fc",
	"rc/sections=9":      "e154433a5cd858bca0615e9cd7bd0a386bdbed059f4dd8787643a5604808d736",
	"rlc/sections=9":     "c6334c7cf5576cec6909bfb4a2fdf41d0bff8e8540e00af35ee93c838a318f45",
	"rlc/scale+no-dedup": "6b94dc7c25920b4f3f8921bfc60903f3eaa0baa00a53ce2a40664628dcb756ab",
}

// TestStageCircuitsBitIdentical pins the arrivals of a seeded-load
// microstrip tree to the bit, in RC and RLC, with and without the stage
// memo, under Scale perturbations (one of which zeroes a stage's L, so
// its ladders are RC inside an RLC analysis) and at 9 sections: how a
// stage's circuit is built and solved must leave every arrival as it
// is. A negative R scale keeps its error text.
func TestStageCircuitsBitIdentical(t *testing.T) {
	if !exactFloatBuild {
		t.Skip("sums recorded on amd64 at GOAMD64=v1; a build that fuses multiply-adds rounds differently")
	}
	tr, loads := seededMicrostripTree(t)
	scale := map[int][3]float64{1: {1.1, 0.9, 1}, 2: {0.95, 1.05, 0}, 7: {1, 1, 1.2}, 12: {1.02, 1, 0.97}}
	cases := map[string]SimOptions{
		"rc":                 {},
		"rlc":                {WithL: true},
		"rc/no-dedup":        {NoStageDedup: true},
		"rlc/no-dedup":       {WithL: true, NoStageDedup: true},
		"rc/scale":           {Scale: scale},
		"rlc/scale":          {WithL: true, Scale: scale},
		"rc/sections=9":      {Sections: 9},
		"rlc/sections=9":     {WithL: true, Sections: 9},
		"rlc/scale+no-dedup": {WithL: true, Scale: scale, NoStageDedup: true},
	}
	for name, opts := range cases {
		opts.LeafLoadScale = loads
		opts.SampleCap = 16
		st, err := tr.Analyze(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		arr, err := tr.Arrivals(opts)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := arrivalSum(st, arr), stageCircuitSums[name]; got != want {
			t.Errorf("%s: sum %s, recorded %s", name, got, want)
		}
	}

	const wantErr = "netlist: segment RLC out of range (R=-1.6800000000000004, L=3.7315209672872365e-10, C=9.086819309385674e-13)"
	_, err := tr.Analyze(SimOptions{WithL: true, LeafLoadScale: loads, Scale: map[int][3]float64{3: {-1, 1, 1}}})
	if err == nil || err.Error() != wantErr {
		t.Errorf("negative R scale: error %v, want %q", err, wantErr)
	}
}

// An analysis compiles one circuit per stage topology: the seeded tree
// runs 18 transients per analysis on one compiled circuit, and a Scale
// entry whose L factor is 0 gives its stage RC ladders, a second
// topology, inside an RLC analysis.
func TestStageCircuitsCompiledOncePerTopology(t *testing.T) {
	compiles, transients := obs.GetCounter("sim.compiles"), obs.GetCounter("sim.transients")
	tr, loads := seededMicrostripTree(t)
	c0, t0 := compiles.Value(), transients.Value()
	for _, withL := range []bool{false, true} {
		if _, err := tr.AnalyzeCtx(context.Background(), SimOptions{WithL: withL, LeafLoadScale: loads}, nil); err != nil {
			t.Fatal(err)
		}
	}
	if c, n := compiles.Value()-c0, transients.Value()-t0; c != 2 || n != 36 {
		t.Errorf("an RC and an RLC analysis: %d compiles and %d transients, want 2 and 36", c, n)
	}
	c0 = compiles.Value()
	opts := SimOptions{WithL: true, LeafLoadScale: loads, Scale: map[int][3]float64{6: {1, 1, 0}}}
	if _, err := tr.AnalyzeCtx(context.Background(), opts, nil); err != nil {
		t.Fatal(err)
	}
	if c := compiles.Value() - c0; c != 2 {
		t.Errorf("an RLC analysis with one zero-L stage: %d compiles, want 2", c)
	}
}
