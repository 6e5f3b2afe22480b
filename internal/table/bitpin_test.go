package table

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"testing"

	"clockrlc/internal/geom"
)

// valsSum hashes the IEEE-754 bits of a set's self and then mutual
// table values, each prefixed by its length.
func valsSum(s *Set) string {
	h := sha256.New()
	var buf [8]byte
	put := func(u uint64) {
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	for _, vals := range [][]float64{s.Self.Vals, s.Mutual.Vals} {
		put(uint64(len(vals)))
		for _, v := range vals {
			put(math.Float64bits(v))
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// builtTableSums are the SHA-256 sums of valsSum for each set
// of TestBuiltTablesBitIdentical, recorded on amd64 at GOAMD64=v1.
var builtTableSums = map[string]string{
	"coplanar":   "cad9207acafcee8d63e117451c95428ff4850bb1978b622a0014d46024bbd9d6",
	"microstrip": "e75ab30a2a6ba0ff16f3b9f51225b39390b59b6ba2bf12807753b59008508420",
	"stripline":  "be335bcabb457365d1da3de83f705878fb96fd48cf9cbbe4676bfb4dd4f37417",
}

// TestBuiltTablesBitIdentical pins every self and mutual value of a
// small-axes coplanar, microstrip and stripline build to the bit: how
// the field solver fills its partial-inductance matrices must leave
// each table value as it is.
func TestBuiltTablesBitIdentical(t *testing.T) {
	if !exactFloatBuild {
		t.Skip("sums recorded on amd64 at GOAMD64=v1; a build that fuses multiply-adds rounds differently")
	}
	strip := microstripConfig()
	strip.Name = "M6/stripline"
	strip.Shielding = geom.ShieldStripline
	for name, cfg := range map[string]Config{
		"coplanar":   freeConfig(),
		"microstrip": microstripConfig(),
		"stripline":  strip,
	} {
		s, err := Build(cfg, smallAxes())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, want := valsSum(s), builtTableSums[name]; got != want {
			t.Errorf("%s: sum %s, recorded %s", name, got, want)
		}
	}
}
