package clockrlc_test

import (
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"clockrlc"
)

// The validation facade end to end: a clean build audits clean, a
// corrupted set is caught by AuditTables and by a strict-policy load,
// and the lookup policies govern out-of-range behaviour.
func TestValidationSurface(t *testing.T) {
	defer clockrlc.SetCheckPolicy(clockrlc.CheckOff)
	clockrlc.SetCheckPolicy(clockrlc.CheckOff)
	cfg := clockrlc.TableConfig{
		Name:      "facade/coplanar",
		Thickness: clockrlc.Um(2),
		Rho:       clockrlc.RhoCopper,
		Shielding: clockrlc.ShieldNone,
		Frequency: clockrlc.SignificantFrequency(50 * clockrlc.PicoSecond),
	}
	axes := clockrlc.TableAxes{
		Widths:   clockrlc.LogAxis(clockrlc.Um(1), clockrlc.Um(8), 3),
		Spacings: clockrlc.LogAxis(clockrlc.Um(1), clockrlc.Um(4), 2),
		Lengths:  clockrlc.LogAxis(clockrlc.Um(200), clockrlc.Um(2000), 3),
	}
	set, err := clockrlc.BuildTables(cfg, axes)
	if err != nil {
		t.Fatal(err)
	}
	if vs := clockrlc.AuditTables(set); len(vs) != 0 {
		t.Fatalf("clean build fails audit: %+v", vs)
	}

	// Out-of-range lookups under each policy.
	set.Lookup = clockrlc.TableLookupError
	if _, err := set.SelfL(clockrlc.Um(100), clockrlc.Um(500)); !errors.Is(err, clockrlc.ErrTableOutOfRange) {
		t.Errorf("error-policy OOB lookup: %v", err)
	}
	set.Lookup = clockrlc.TableLookupClamp
	if _, err := set.SelfL(clockrlc.Um(100), clockrlc.Um(500)); err != nil {
		t.Errorf("clamp-policy OOB lookup failed: %v", err)
	}
	set.Lookup = clockrlc.TableLookupExtrapolate

	// Corrupt one diagonal mutual entry beyond the coupling bound.
	nw, ns, nl := len(axes.Widths), len(axes.Spacings), len(axes.Lengths)
	set.Mutual.Vals[((0*nw+0)*ns+0)*nl+0] = 10 * set.Self.Vals[0]
	vs := clockrlc.AuditTables(set)
	if len(vs) == 0 {
		t.Fatal("audit missed k >= 1")
	}
	found := false
	for _, v := range vs {
		if strings.Contains(v.Invariant, "k < 1") && strings.Contains(v.Cell, "mutual[0,0,0,0]") {
			found = true
		}
	}
	if !found {
		t.Errorf("no k-bound violation naming the cell in %+v", vs)
	}

	// A strict-policy load rejects the corrupted file with the named
	// error; parse helpers round-trip the flag spellings.
	path := filepath.Join(t.TempDir(), "set.rlct")
	if err := set.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	p, err := clockrlc.ParseCheckPolicy("strict")
	if err != nil || p != clockrlc.CheckStrict {
		t.Fatalf("ParseCheckPolicy: %v, %v", p, err)
	}
	if _, err := clockrlc.ParseTableLookupPolicy("clamp"); err != nil {
		t.Fatal(err)
	}
	clockrlc.SetCheckPolicy(clockrlc.CheckStrict)
	if _, err := clockrlc.LoadTables(path); !errors.Is(err, clockrlc.ErrCheckViolation) {
		t.Errorf("strict load of corrupted set: %v", err)
	}
	clockrlc.SetCheckPolicy(clockrlc.CheckWarn)
	before := clockrlc.CheckViolationCount()
	if _, err := clockrlc.LoadTables(path); err != nil {
		t.Errorf("warn load failed: %v", err)
	}
	if clockrlc.CheckViolationCount() <= before {
		t.Error("warn load did not advance CheckViolationCount")
	}

	// WithChecks arms one extractor regardless of the process policy.
	clockrlc.SetCheckPolicy(clockrlc.CheckOff)
	tech := clockrlc.Technology{
		Thickness: clockrlc.Um(2), Rho: clockrlc.RhoCopper,
		EpsRel: clockrlc.EpsSiO2, CapHeight: clockrlc.Um(2),
	}
	ext, err := clockrlc.NewExtractor(tech, cfg.Frequency, axes,
		[]clockrlc.Shielding{clockrlc.ShieldNone},
		clockrlc.WithChecks(clockrlc.CheckStrict), clockrlc.WithLookupPolicy(clockrlc.TableLookupClamp))
	if err != nil {
		t.Fatalf("strict-checked extractor on clean tables: %v", err)
	}
	if _, err := ext.SegmentRLC(clockrlc.Segment{
		Length: clockrlc.Um(1000), SignalWidth: clockrlc.Um(4),
		GroundWidth: clockrlc.Um(2), Spacing: clockrlc.Um(1.5),
		Shielding: clockrlc.ShieldNone,
	}); err != nil {
		t.Fatalf("checked extraction failed on a physical segment: %v", err)
	}
}
