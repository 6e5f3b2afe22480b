package main

import (
	"bytes"
	"context"
	"math"
	"os"
	"path/filepath"
	"testing"

	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

func TestRunBuildsLoadableTables(t *testing.T) {
	out := filepath.Join(t.TempDir(), "set.rlct")
	err := run(context.Background(), out, "m6", 2, "cu", "coplanar", 2, 1,
		50, 1, 4, 2, 1, 2, 2, 100, 1000, 3, 2, "")
	if err != nil {
		t.Fatal(err)
	}
	set, err := table.LoadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if set.Config.Name != "m6/coplanar" {
		t.Errorf("set name %q", set.Config.Name)
	}
	if _, err := set.SelfL(2e-6, 500e-6); err != nil {
		t.Errorf("lookup failed: %v", err)
	}
}

// The tier-1 round-trip gate: tablegen → save → load → compare
// against an in-memory build of the same sweep, bit for bit. Any
// lossy codec change (float formatting, reordered values, dropped
// config) fails here before it can poison a production library.
func TestRoundTripBitForBit(t *testing.T) {
	out := filepath.Join(t.TempDir(), "set.rlct")
	if err := run(context.Background(), out, "m6", 2, "cu", "coplanar", 2, 1,
		50, 1, 4, 2, 1, 2, 2, 100, 1000, 3, 2, ""); err != nil {
		t.Fatal(err)
	}
	loaded, err := table.LoadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	// Rebuild the identical sweep in memory (builds are deterministic
	// at any worker count).
	cfg := table.Config{
		Name:           "m6/coplanar",
		Thickness:      units.Um(2),
		Rho:            units.RhoCopper,
		Shielding:      geom.ShieldNone,
		PlaneGap:       units.Um(2),
		PlaneThickness: units.Um(1),
		Frequency:      units.SignificantFrequency(50 * units.PicoSecond),
	}
	axes := table.Axes{
		Widths:   table.LogAxis(units.Um(1), units.Um(4), 2),
		Spacings: table.LogAxis(units.Um(1), units.Um(2), 2),
		Lengths:  table.LogAxis(units.Um(100), units.Um(1000), 3),
	}
	built, err := table.Build(cfg, axes)
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, built, loaded)
}

// Re-running tablegen against a warm cache must sweep nothing: the
// whole point of the artifact is that the solver runs once, ever.
func TestRunCacheHitSkipsSolves(t *testing.T) {
	dir := t.TempDir()
	cacheDir := filepath.Join(dir, "cache")
	args := func(out string) error {
		return run(context.Background(), out, "m6", 2, "cu", "coplanar", 2, 1,
			50, 1, 4, 2, 1, 2, 2, 100, 1000, 3, 1, cacheDir)
	}
	if err := args(filepath.Join(dir, "a.rlct")); err != nil {
		t.Fatal(err)
	}
	solves := obs.GetCounter("table.solver_calls")
	solves0 := solves.Value()
	if err := args(filepath.Join(dir, "b.rlct")); err != nil {
		t.Fatal(err)
	}
	if got := solves.Value() - solves0; got != 0 {
		t.Errorf("cached rerun performed %d solver calls, want 0", got)
	}
	a, err := table.LoadFile(filepath.Join(dir, "a.rlct"))
	if err != nil {
		t.Fatal(err)
	}
	b, err := table.LoadFile(filepath.Join(dir, "b.rlct"))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range a.Self.Vals {
		if b.Self.Vals[k] != v {
			t.Fatalf("self[%d]: cold %g != cached %g", k, v, b.Self.Vals[k])
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	out := filepath.Join(t.TempDir(), "set.rlct")
	if err := run(context.Background(), out, "m6", 2, "unobtainium", "coplanar", 2, 1,
		50, 1, 4, 2, 1, 2, 2, 100, 1000, 3, 1, ""); err == nil {
		t.Error("accepted unknown metal")
	}
	if err := run(context.Background(), out, "m6", 2, "cu", "waveguide", 2, 1,
		50, 1, 4, 2, 1, 2, 2, 100, 1000, 3, 1, ""); err == nil {
		t.Error("accepted unknown shielding")
	}
}

// v2Fixture is a v2 JSON set written by the last tablegen that had a
// JSON writer (`-format v2 -name m6 -wmin 1 -wmax 4 -nw 2 -smin 1
// -smax 2 -ns 2 -lmin 100 -lmax 1000 -nl 3`, other flags at their
// defaults): the real input the migrate tests convert.
const v2Fixture = "testdata/m6_coplanar_v2.json"

// loadV2Fixture loads the fixture after checking it really is a v2
// JSON record, so the migrate tests exercise the legacy reader.
func loadV2Fixture(t *testing.T) *table.Set {
	t.Helper()
	raw, err := os.ReadFile(v2Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(raw, []byte(`{"version":2,`)) {
		t.Fatalf("%s is not a v2 JSON record: %.20q", v2Fixture, raw)
	}
	set, err := table.LoadFile(v2Fixture)
	if err != nil {
		t.Fatal(err)
	}
	return set
}

// sameValues fails unless got holds orig's config, axes and values
// bit for bit and answers one off-grid self and mutual lookup with
// the same bits.
func sameValues(t *testing.T, orig, got *table.Set) {
	t.Helper()
	want := orig.Config
	want.Workers = 0 // an execution detail the v3 codec does not store
	if got.Config != want {
		t.Errorf("config drifted: %+v, want %+v", got.Config, want)
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
			t.Fatalf("%s: %d values, want %d", name, len(b), len(a))
		}
		for k := range a {
			if math.Float64bits(a[k]) != math.Float64bits(b[k]) {
				t.Fatalf("%s[%d] drifted: %g != %g", name, k, b[k], a[k])
			}
		}
	}
	a, err1 := orig.SelfL(units.Um(1.7), units.Um(430))
	b, err2 := got.SelfL(units.Um(1.7), units.Um(430))
	if err1 != nil || err2 != nil || math.Float64bits(a) != math.Float64bits(b) {
		t.Errorf("off-grid self lookup drifted: %g vs %g (%v, %v)", a, b, err1, err2)
	}
	m1, err1 := orig.MutualL(units.Um(1.3), units.Um(1.6), units.Um(1.4), units.Um(700))
	m2, err2 := got.MutualL(units.Um(1.3), units.Um(1.6), units.Um(1.4), units.Um(700))
	if err1 != nil || err2 != nil || math.Float64bits(m1) != math.Float64bits(m2) {
		t.Errorf("off-grid mutual lookup drifted: %g vs %g (%v, %v)", m1, m2, err1, err2)
	}
}

// TestMigrateFileBitIdentical: `tablegen migrate` converts a v2 JSON
// artifact to the v3 binary codec without perturbing a single bit.
func TestMigrateFileBitIdentical(t *testing.T) {
	orig := loadV2Fixture(t)
	v3 := filepath.Join(t.TempDir(), "set.rlct")
	if err := migrate(v2Fixture, v3); err != nil {
		t.Fatal(err)
	}
	got, err := table.LoadFile(v3)
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, orig, got)
}

// TestMigrateDir: directory mode converts a whole library in one call.
func TestMigrateDir(t *testing.T) {
	orig := loadV2Fixture(t)
	dir := t.TempDir()
	srcDir := filepath.Join(dir, "lib")
	copyFixture(t, srcDir)
	dstDir := filepath.Join(dir, "lib3")
	if err := migrate(srcDir, dstDir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "m6%2Fcoplanar.rlct" {
		t.Fatalf("migrated library holds %v, want one m6%%2Fcoplanar.rlct", entries)
	}
	migrated, err := table.LoadDir(dstDir)
	if err != nil {
		t.Fatal(err)
	}
	got, err := migrated.Get("m6/coplanar")
	if err != nil {
		t.Fatal(err)
	}
	sameValues(t, orig, got)
}

// Migrating a library into its own directory used to report success
// and leave x.rlct beside x.json, so the next LoadDir failed on a
// duplicate set. It is refused before anything is written.
func TestMigrateRefusesSameDir(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "lib")
	copyFixture(t, dir)
	for _, dst := range []string{dir, dir + string(filepath.Separator) + "."} {
		if err := migrate(dir, dst); err == nil {
			t.Errorf("migrate %s %s succeeded", dir, dst)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("the refused migrate wrote into the source: %v", entries)
	}
	if _, err := table.LoadDir(dir); err != nil {
		t.Fatalf("the source library no longer loads: %v", err)
	}
}

// copyFixture makes dir a one-set library holding the v2 fixture.
func copyFixture(t *testing.T, dir string) {
	t.Helper()
	raw, err := os.ReadFile(v2Fixture)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "m6_coplanar.json"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}
