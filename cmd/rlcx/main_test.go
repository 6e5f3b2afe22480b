package main

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"clockrlc/internal/check"
	"clockrlc/internal/geom"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

func TestRunWithPrebuiltTables(t *testing.T) {
	cfg := table.Config{
		Name:      "t/coplanar",
		Thickness: units.Um(2),
		Rho:       units.RhoCopper,
		Shielding: geom.ShieldNone,
		Frequency: units.SignificantFrequency(50e-12),
	}
	axes := table.Axes{
		Widths:   table.LogAxis(units.Um(1), units.Um(12), 3),
		Spacings: table.LogAxis(units.Um(0.5), units.Um(4), 3),
		Lengths:  table.LogAxis(units.Um(500), units.Um(4000), 3),
	}
	set, err := table.Build(cfg, axes)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "set.rlct")
	if err := set.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), 2000, 8, 4, 1, "coplanar", 2, 2, 50, path, "", true, 4, "extrapolate"); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadShield(t *testing.T) {
	if err := run(context.Background(), 2000, 8, 4, 1, "bogus", 2, 2, 50, "", "", false, 4, "extrapolate"); err == nil {
		t.Error("accepted unknown shielding")
	}
}

// Acceptance: a pre-built table with one k >= 1 mutual entry is
// rejected under -check=strict with an error naming the table, cell
// and invariant, before any extraction runs; under -check=warn the
// same run completes and the violation counter advances.
func TestRunCorruptTableStrictVsWarn(t *testing.T) {
	defer check.SetPolicy(check.Off)
	check.SetPolicy(check.Off)
	cfg := table.Config{
		Name:      "t/coplanar",
		Thickness: units.Um(2),
		Rho:       units.RhoCopper,
		Shielding: geom.ShieldNone,
		Frequency: units.SignificantFrequency(50e-12),
	}
	axes := table.Axes{
		Widths:   table.LogAxis(units.Um(1), units.Um(12), 3),
		Spacings: table.LogAxis(units.Um(0.5), units.Um(4), 3),
		Lengths:  table.LogAxis(units.Um(500), units.Um(4000), 3),
	}
	set, err := table.Build(cfg, axes)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one diagonal mutual entry far above the coupling bound; the
	// re-save computes a fresh (valid) checksum, so only the physical
	// audit can catch it.
	nw, ns, nl := len(axes.Widths), len(axes.Spacings), len(axes.Lengths)
	set.Mutual.Vals[((1*nw+1)*ns+0)*nl+1] = 100 * set.Self.Vals[1*nl+1]
	path := filepath.Join(t.TempDir(), "set.rlct")
	if err := set.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	check.SetPolicy(check.Strict)
	err = run(context.Background(), 2000, 8, 4, 1, "coplanar", 2, 2, 50, path, "", false, 4, "extrapolate")
	if err == nil {
		t.Fatal("strict run accepted a table with k >= 1")
	}
	if !errors.Is(err, check.ErrViolation) {
		t.Errorf("%v does not unwrap to check.ErrViolation", err)
	}
	for _, frag := range []string{path, "mutual coupling k < 1", "mutual[1,1,0,1]"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("strict error %q missing %q", err.Error(), frag)
		}
	}

	check.SetPolicy(check.Warn)
	before := check.Violations()
	if err := run(context.Background(), 2000, 8, 4, 1, "coplanar", 2, 2, 50, path, "", false, 4, "extrapolate"); err != nil {
		t.Fatalf("warn run failed: %v", err)
	}
	if check.Violations() <= before {
		t.Error("warn run did not advance check.violations")
	}
}
