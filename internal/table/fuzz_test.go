package table

// Native fuzz targets for the package's attack surfaces — the inputs
// a production extraction service would receive from users: serialised
// table records (Load), set names destined for the filesystem
// (fileName), and build configurations (Config.Validate). Each target
// asserts the decode/validate gate either rejects cleanly or yields an
// internally consistent value; panics and silently accepted garbage
// are the failures. Seed corpora live under testdata/fuzz and run as
// ordinary cases during plain `go test`; `make fuzz` gives each target
// a short randomised budget.

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"clockrlc/internal/geom"
	"clockrlc/internal/units"
)

func FuzzLoadFile(f *testing.F) {
	valid := encodeJSON(f, syntheticSet(f)) // a v2 JSON record
	f.Add(valid)
	f.Add([]byte(`{}`))
	f.Add([]byte(`{"version":1}`))
	f.Add(bytes.Replace(valid, []byte(`"version":2`), []byte(`"version":9`), 1))
	f.Add(valid[:len(valid)/2]) // truncated mid-record
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Load(bytes.NewReader(data))
		if err != nil {
			return // rejection is fine; panicking or false acceptance is not
		}
		// An accepted record must be internally consistent: validated
		// axes, matching value counts, and a working in-range lookup.
		if err := s.Axes.Validate(); err != nil {
			t.Fatalf("Load accepted a record with invalid axes: %v", err)
		}
		nw, ns, nl := len(s.Axes.Widths), len(s.Axes.Spacings), len(s.Axes.Lengths)
		if len(s.Self.Vals) != nw*nl || len(s.Mutual.Vals) != nw*nw*ns*nl {
			t.Fatalf("Load accepted mismatched value counts: self %d (want %d), mutual %d (want %d)",
				len(s.Self.Vals), nw*nl, len(s.Mutual.Vals), nw*nw*ns*nl)
		}
		if v, err := s.SelfL(s.Axes.Widths[0], s.Axes.Lengths[0]); err != nil {
			t.Fatalf("in-range lookup on an accepted record failed: %v", err)
		} else if math.IsNaN(v) {
			// NaN table *values* are data (the audit layer's concern,
			// policy-gated); a NaN from a non-NaN table is a spline bug.
			for _, sv := range s.Self.Vals {
				if math.IsNaN(sv) {
					return
				}
			}
			t.Fatal("NaN lookup from a NaN-free accepted record")
		}
	})
}

// unescapeFileName inverts fileName's %XX escaping (test-local; the
// production mapping is one-way on purpose).
func unescapeFileName(fn string) (string, bool) {
	fn, ok := strings.CutSuffix(fn, ".rlct")
	if !ok {
		return "", false
	}
	var b strings.Builder
	for i := 0; i < len(fn); i++ {
		if fn[i] != '%' {
			b.WriteByte(fn[i])
			continue
		}
		if i+2 >= len(fn) {
			return "", false
		}
		hex := func(c byte) (byte, bool) {
			switch {
			case c >= '0' && c <= '9':
				return c - '0', true
			case c >= 'A' && c <= 'F':
				return c - 'A' + 10, true
			}
			return 0, false
		}
		hi, ok1 := hex(fn[i+1])
		lo, ok2 := hex(fn[i+2])
		if !ok1 || !ok2 {
			return "", false
		}
		b.WriteByte(hi<<4 | lo)
		i += 2
	}
	return b.String(), true
}

func FuzzLibraryFileName(f *testing.F) {
	f.Add("M6/microstrip")
	f.Add("a\\b")
	f.Add("a_b")
	f.Add("..")
	f.Add("%41")
	f.Add("name with spaces and ünïcode")
	f.Add("")
	f.Fuzz(func(t *testing.T, name string) {
		fn := fileName(name)
		if !strings.HasSuffix(fn, ".rlct") {
			t.Fatalf("fileName(%q) = %q lacks the .rlct suffix", name, fn)
		}
		for i := 0; i < len(fn); i++ {
			switch ch := fn[i]; {
			case ch >= 'a' && ch <= 'z', ch >= 'A' && ch <= 'Z',
				ch >= '0' && ch <= '9', ch == '.', ch == '-', ch == '_', ch == '%':
			default:
				t.Fatalf("fileName(%q) = %q contains unsafe byte %q", name, fn, ch)
			}
		}
		if strings.Contains(fn, "/") || strings.Contains(fn, "\\") {
			t.Fatalf("fileName(%q) = %q contains a path separator", name, fn)
		}
		// Injectivity via invertibility: the escaped name decodes back
		// to exactly the input, so two distinct names cannot share a
		// file.
		back, ok := unescapeFileName(fn)
		if !ok || back != name {
			t.Fatalf("fileName(%q) = %q does not round-trip (got %q, ok=%v)", name, fn, back, ok)
		}
	})
}

func FuzzConfigValidate(f *testing.F) {
	f.Add(units.Um(2), units.RhoCopper, 3.2e9, byte(0), 0.0, 0.0)
	f.Add(units.Um(2), units.RhoCopper, 3.2e9, byte(1), units.Um(2), units.Um(1))
	f.Add(math.NaN(), units.RhoCopper, 3.2e9, byte(0), 0.0, 0.0)
	f.Add(units.Um(2), math.Inf(1), 3.2e9, byte(2), units.Um(2), units.Um(1))
	f.Add(0.0, 0.0, 0.0, byte(1), math.NaN(), -1.0)
	f.Fuzz(func(t *testing.T, thickness, rho, freq float64, shield byte, gap, pthick float64) {
		cfg := Config{
			Name:           "fuzz",
			Thickness:      thickness,
			Rho:            rho,
			Frequency:      freq,
			Shielding:      geom.Shielding(shield % 3),
			PlaneGap:       gap,
			PlaneThickness: pthick,
		}
		err := cfg.Validate()
		if err != nil {
			return
		}
		// Accepted configurations must be entirely finite and positive
		// where the build assumes so — a NaN or Inf that slips through
		// here reaches the field solver.
		for _, v := range []float64{cfg.Thickness, cfg.Rho, cfg.Frequency} {
			if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
				t.Fatalf("Validate accepted non-physical config: %+v", cfg)
			}
		}
		if cfg.Shielding != geom.ShieldNone {
			for _, v := range []float64{cfg.PlaneGap, cfg.PlaneThickness} {
				if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
					t.Fatalf("Validate accepted shielded config with bad plane: %+v", cfg)
				}
			}
		}
	})
}
