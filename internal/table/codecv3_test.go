package table

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// lookupProbe evaluates a deterministic sweep of self and mutual
// lookups (in-range and extrapolated) and returns the raw bits, so two
// sets can be compared for bit-identical lookup behaviour.
func lookupProbe(t *testing.T, s *Set) []uint64 {
	t.Helper()
	var out []uint64
	ws := []float64{s.Axes.Widths[0] * 0.5, s.Axes.Widths[0], s.Axes.Widths[1] * 1.1, s.Axes.Widths[len(s.Axes.Widths)-1] * 1.5}
	sps := []float64{s.Axes.Spacings[0], s.Axes.Spacings[len(s.Axes.Spacings)-1] * 1.2}
	ls := []float64{s.Axes.Lengths[0], s.Axes.Lengths[1] * 1.3, s.Axes.Lengths[len(s.Axes.Lengths)-1]}
	for _, w := range ws {
		for _, l := range ls {
			v, err := s.SelfL(w, l)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, math.Float64bits(v))
		}
	}
	for _, w1 := range ws[:2] {
		for _, sp := range sps {
			for _, l := range ls {
				v, err := s.MutualL(w1, ws[2], sp, l)
				if err != nil {
					t.Fatal(err)
				}
				out = append(out, math.Float64bits(v))
			}
		}
	}
	return out
}

func TestCodecV3RoundTripBitIdentical(t *testing.T) {
	orig := syntheticSet(t)
	orig.Config.Thickness = 0.5e-6
	orig.Config.Rho = 1.68e-8
	orig.Config.Frequency = 3.2e9
	orig.Config.PlaneStrips = 12
	orig.Config.SubW = 4
	orig.Config.SubT = 2
	orig.Config.Workers = 7 // execution detail: not persisted by v3

	path := filepath.Join(t.TempDir(), "set.rlct")
	if err := orig.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	wantCfg := orig.Config
	wantCfg.Workers = 0
	if got.Config != wantCfg {
		t.Errorf("config round-trip: got %+v, want %+v", got.Config, wantCfg)
	}
	for name, pair := range map[string][2][]float64{
		"widths":   {orig.Axes.Widths, got.Axes.Widths},
		"spacings": {orig.Axes.Spacings, got.Axes.Spacings},
		"lengths":  {orig.Axes.Lengths, got.Axes.Lengths},
		"self":     {orig.Self.Vals, got.Self.Vals},
		"mutual":   {orig.Mutual.Vals, got.Mutual.Vals},
	} {
		a, b := pair[0], pair[1]
		if len(a) != len(b) {
			t.Fatalf("%s: length %d vs %d", name, len(a), len(b))
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d]: %v != %v (bitwise)", name, i, b[i], a[i])
			}
		}
	}
	a, b := lookupProbe(t, orig), lookupProbe(t, got)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("lookup probe %d differs between original and v3-loaded set", i)
		}
	}
}

// TestCodecV3GoldenMigration is the migration gate: a v2 JSON file
// loaded and re-saved as v3 must yield bit-identical values and
// bit-identical lookup results.
func TestCodecV3GoldenMigration(t *testing.T) {
	dir := t.TempDir()
	jsonPath := filepath.Join(dir, "set.json")
	if err := os.WriteFile(jsonPath, encodeJSON(t, syntheticSet(t)), 0o644); err != nil {
		t.Fatal(err)
	}

	fromJSON, err := LoadFile(jsonPath)
	if err != nil {
		t.Fatal(err)
	}
	v3Path := filepath.Join(dir, "set.rlct")
	if err := fromJSON.SaveFile(v3Path); err != nil {
		t.Fatal(err)
	}
	fromV3, err := LoadFile(v3Path)
	if err != nil {
		t.Fatal(err)
	}

	for name, pair := range map[string][2][]float64{
		"self":   {fromJSON.Self.Vals, fromV3.Self.Vals},
		"mutual": {fromJSON.Mutual.Vals, fromV3.Mutual.Vals},
	} {
		a, b := pair[0], pair[1]
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("%s[%d]: v3 %v != v2 %v (bitwise)", name, i, b[i], a[i])
			}
		}
	}
	a, b := lookupProbe(t, fromJSON), lookupProbe(t, fromV3)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("lookup probe %d: v2-loaded and migrated v3 sets disagree bitwise", i)
		}
	}
}

func TestCodecV3LoadFromReader(t *testing.T) {
	orig := syntheticSet(t)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Config.Name != orig.Config.Name {
		t.Errorf("name %q != %q", got.Config.Name, orig.Config.Name)
	}
	for i := range orig.Mutual.Vals {
		if math.Float64bits(got.Mutual.Vals[i]) != math.Float64bits(orig.Mutual.Vals[i]) {
			t.Fatalf("mutual[%d] differs", i)
		}
	}
}

func TestCodecV3RejectsCorruption(t *testing.T) {
	orig := syntheticSet(t)
	var buf bytes.Buffer
	if err := orig.Save(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	dir := t.TempDir()
	// reseal recomputes the checksum after a structural mutation, so
	// only the size/bound guards can reject the record (the layers a
	// checksum-aware corruptor would hit).
	reseal := func(b []byte) []byte {
		sum := v3Checksum(b)
		copy(b[16:48], sum[:])
		return b
	}
	cases := []struct {
		name    string
		mutate  func([]byte) []byte
		wantSub string
	}{
		{"truncated_header", func(b []byte) []byte { return b[:v3HeaderSize/2] }, "truncated"},
		{"truncated_body", func(b []byte) []byte { return reseal(b[:len(b)-9]) }, "size mismatch"},
		{"oversized", func(b []byte) []byte { return reseal(append(b, make([]byte, 16)...)) }, "size mismatch"},
		{"bit_flip_value", func(b []byte) []byte { b[len(b)-3] ^= 0x40; return b }, "checksum mismatch"},
		{"bit_flip_header", func(b []byte) []byte { b[49] ^= 0x01; return b }, "checksum mismatch"},
		{"future_version", func(b []byte) []byte { b[8] = 77; return b }, "newer than this build"},
		{"absurd_axis_count", func(b []byte) []byte {
			b[104], b[105], b[106] = 0xFF, 0xFF, 0xFF
			return reseal(b)
		}, "exceed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mut := tc.mutate(append([]byte(nil), good...))
			// Both entry points must reject it with the same diagnosis.
			if _, err := Load(bytes.NewReader(mut)); err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("Load: got %v, want substring %q", err, tc.wantSub)
			}
			p := filepath.Join(dir, tc.name+".rlct")
			if err := os.WriteFile(p, mut, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := LoadFile(p)
			if err == nil || !strings.Contains(err.Error(), tc.wantSub) {
				t.Errorf("LoadFile: got %v, want substring %q", err, tc.wantSub)
			}
			if err != nil && !strings.Contains(err.Error(), p) {
				t.Errorf("LoadFile error does not name the file: %v", err)
			}
		})
	}
}

// TestLoadFileRefusesPaddedV3BeforeReading: a v3 file grown far past
// the size its header declares is refused by the header check alone,
// before its body is read or allocated for. os.Truncate grows the file
// sparsely, so the test writes nothing.
func TestLoadFileRefusesPaddedV3BeforeReading(t *testing.T) {
	path := filepath.Join(t.TempDir(), "padded.rlct")
	if err := syntheticSet(t).SaveFile(path); err != nil {
		t.Fatal(err)
	}
	const padded = 256 << 20
	if err := os.Truncate(path, padded); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := LoadFile(path)
	runtime.ReadMemStats(&after)
	if err == nil || !strings.Contains(err.Error(), "size mismatch") || !strings.Contains(err.Error(), path) {
		t.Fatalf("LoadFile of a file padded to %d bytes: got %v, want a size mismatch naming %s", padded, err, path)
	}
	if d := after.TotalAlloc - before.TotalAlloc; d >= 16<<20 {
		t.Errorf("LoadFile allocated %d bytes before refusing a file padded to %d bytes", d, padded)
	}
}

// TestLoadDirMixedFormats: a library directory may hold legacy .json
// and v3 .rlct sets side by side.
func TestLoadDirMixedFormats(t *testing.T) {
	dir := t.TempDir()
	a := syntheticSet(t)
	a.Config.Name = "m6/json"
	if err := os.WriteFile(filepath.Join(dir, "m6-json.json"), encodeJSON(t, a), 0o644); err != nil {
		t.Fatal(err)
	}
	b := syntheticSet(t)
	b.Config.Name = "m6/v3"
	if err := b.SaveFile(filepath.Join(dir, fileName(b.Config.Name))); err != nil {
		t.Fatal(err)
	}
	lib, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if lib.Len() != 2 {
		t.Fatalf("loaded %d sets, want 2 (%v)", lib.Len(), lib.Names())
	}
	for _, name := range []string{"m6/json", "m6/v3"} {
		if _, err := lib.Get(name); err != nil {
			t.Error(err)
		}
	}
}

// TestLoadDirErrorSinglePrefix is the regression test for the
// double-wrap bug: LoadFile already frames "table: <path>: …", and
// LoadDir used to re-frame it as "table: <name>: table: <path>: …".
func TestLoadDirErrorSinglePrefix(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "broken.json"), []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := LoadDir(dir)
	if err == nil {
		t.Fatal("want error for corrupt library file")
	}
	if got := strings.Count(err.Error(), "table:"); got != 1 {
		t.Errorf("error frames the table: prefix %d times, want exactly 1: %v", got, err)
	}
	if !strings.Contains(err.Error(), "broken.json") {
		t.Errorf("error does not name the file: %v", err)
	}
}
