package table

// Native fuzz target for the v3 binary codec: LoadFile and Load face
// untrusted bytes (a copied library, an NFS-served cache, a corrupted
// download), so every truncation, bit flip, bad count and misaligned
// tail must be rejected with an error — never a panic, never a
// silently accepted wrong table. Seed corpus lives under
// testdata/fuzz/FuzzCodecV3LoadFile and runs as ordinary cases during
// plain `go test`; `make fuzz` adds a randomised budget.

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// fuzzSeedV3 serialises a small valid set in the v3 binary codec.
func fuzzSeedV3(tb testing.TB) []byte {
	s := syntheticSet(tb)
	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

func FuzzCodecV3LoadFile(f *testing.F) {
	valid := fuzzSeedV3(f)
	f.Add(valid)
	f.Add(valid[:v3HeaderSize-8]) // truncated inside the header
	f.Add(valid[:len(valid)-8])   // truncated value block
	f.Add(valid[:len(valid)-4])   // tail no longer 8-aligned
	flip := append([]byte(nil), valid...)
	flip[len(flip)/2] ^= 0x40 // bit-flipped value
	f.Add(flip)
	future := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(future[8:], 9) // version from the future
	f.Add(future)
	counts := append([]byte(nil), valid...)
	binary.LittleEndian.PutUint32(counts[104:], 0xFFFFFF) // absurd axis count
	f.Add(counts)
	f.Add(v3Magic[:]) // magic alone
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		// The file path (sniff + header check + aligned read).
		path := filepath.Join(t.TempDir(), "in.rlct")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if s, err := LoadFile(path); err == nil {
			fuzzCheckAccepted(t, s)
		}
		// The io.Reader path (sniff + buffered copy).
		if s, err := Load(bytes.NewReader(data)); err == nil {
			fuzzCheckAccepted(t, s)
		}
	})
}

// fuzzCheckAccepted asserts an accepted record is internally
// consistent: validated axes, matching value counts, and a working
// in-range lookup (mirrors FuzzLoadFile's contract for the JSON
// codec).
func fuzzCheckAccepted(t *testing.T, s *Set) {
	t.Helper()
	if err := s.Axes.Validate(); err != nil {
		t.Fatalf("accepted a record with invalid axes: %v", err)
	}
	nw, ns, nl := len(s.Axes.Widths), len(s.Axes.Spacings), len(s.Axes.Lengths)
	if len(s.Self.Vals) != nw*nl || len(s.Mutual.Vals) != nw*nw*ns*nl {
		t.Fatalf("accepted mismatched value counts: self %d (want %d), mutual %d (want %d)",
			len(s.Self.Vals), nw*nl, len(s.Mutual.Vals), nw*nw*ns*nl)
	}
	if v, err := s.SelfL(s.Axes.Widths[0], s.Axes.Lengths[0]); err != nil {
		t.Fatalf("in-range lookup on an accepted record failed: %v", err)
	} else if math.IsNaN(v) {
		for _, sv := range s.Self.Vals {
			if math.IsNaN(sv) {
				return
			}
		}
		t.Fatal("NaN lookup from a NaN-free accepted record")
	}
}
