package table

import (
	"bytes"
	"errors"
	"os"
	"testing"

	"clockrlc/internal/check"
	"clockrlc/internal/obs"
	"clockrlc/internal/spline"
)

// TestCacheEntryIsV3Mapped: cache entries are written in the v3
// binary codec, so a hit reads the artifact into place instead of
// parsing it.
func TestCacheEntryIsV3Mapped(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg, axes := freeConfig(), tinyAxes()
	if _, err := c.GetOrBuild(cfg, axes); err != nil {
		t.Fatal(err)
	}
	key, err := CacheKey(cfg, axes)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(c.Path(key))
	if err != nil {
		t.Fatalf("entry not at the .rlct path: %v", err)
	}
	if !bytes.HasPrefix(raw, v3Magic[:]) {
		t.Fatalf("cache entry does not start with the v3 magic: % x", raw[:8])
	}
	if _, ok, err := c.Get(cfg, axes); err != nil || !ok {
		t.Fatalf("warm get: ok=%v err=%v", ok, err)
	}
}

// TestCacheStrictAuditViolationPropagates is the regression test for
// the trust-boundary bug: a cached set that is well-formed (checksum
// verifies) but fails the strict physical-invariant audit used to be
// counted table.cache_corrupt and silently rebuilt, bypassing the
// user's strict policy. It must surface as an error unwrapping to
// check.ErrViolation, with no corruption counted.
func TestCacheStrictAuditViolationPropagates(t *testing.T) {
	defer check.SetPolicy(check.Off)
	check.SetPolicy(check.Off)

	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg, axes := freeConfig(), tinyAxes()
	built, err := c.GetOrBuild(cfg, axes)
	if err != nil {
		t.Fatal(err)
	}
	key, err := CacheKey(cfg, axes)
	if err != nil {
		t.Fatal(err)
	}

	// Overwrite the entry with a physically wrong but well-formed set:
	// a diagonal mutual entry at twice the self inductance (k = 2).
	nw, ns, nl := len(axes.Widths), len(axes.Spacings), len(axes.Lengths)
	selfVals := append([]float64(nil), built.Self.Vals...)
	mutVals := append([]float64(nil), built.Mutual.Vals...)
	mutVals[((1*nw+1)*ns+0)*nl+1] = 2 * selfVals[1*nl+1]
	bad := &Set{Config: built.Config, Axes: axes}
	if bad.Self, err = spline.NewGrid([][]float64{axes.Widths, axes.Lengths}, selfVals); err != nil {
		t.Fatal(err)
	}
	if bad.Mutual, err = spline.NewGrid(
		[][]float64{axes.Widths, axes.Widths, axes.Spacings, axes.Lengths}, mutVals); err != nil {
		t.Fatal(err)
	}
	if err := bad.SaveFile(c.Path(key)); err != nil {
		t.Fatal(err)
	}

	check.SetPolicy(check.Strict)
	_, _, _, corrupt0 := CacheStats()
	_, ok, err := c.Get(cfg, axes)
	if ok {
		t.Fatal("strict policy: cache served a set that violates physical invariants")
	}
	if !errors.Is(err, check.ErrViolation) {
		t.Fatalf("strict policy: got %v, want an error unwrapping to check.ErrViolation", err)
	}
	if _, _, _, corrupt := CacheStats(); corrupt != corrupt0 {
		t.Errorf("audit violation was counted as corruption (cache_corrupt += %d)", corrupt-corrupt0)
	}

	// GetOrBuild must fail too — not silently rebuild past the policy.
	if _, err := c.GetOrBuild(cfg, axes); !errors.Is(err, check.ErrViolation) {
		t.Errorf("GetOrBuild under strict policy: got %v, want ErrViolation", err)
	}

	// Warn accepts the entry (counting the violation globally).
	check.SetPolicy(check.Warn)
	if _, ok, err := c.Get(cfg, axes); err != nil || !ok {
		t.Errorf("warn policy: ok=%v err=%v, want a hit", ok, err)
	}
}

// TestCacheSpanRecordsKey: the table.cache span carries the content
// address on both hit and miss, so obsreport traces can correlate
// cache entries across runs.
func TestCacheSpanRecordsKey(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg, axes := freeConfig(), tinyAxes()
	key, err := CacheKey(cfg, axes)
	if err != nil {
		t.Fatal(err)
	}
	for _, wantOutcome := range []string{"miss", "hit"} {
		sink := &obs.MemorySink{}
		obs.Default().AddSink(sink)
		_, err := c.GetOrBuild(cfg, axes)
		obs.Default().RemoveSink(sink)
		if err != nil {
			t.Fatal(err)
		}
		found := false
		for _, e := range sink.Events() {
			if e.Name != "table.cache" || e.Attrs == nil {
				continue
			}
			if e.Attrs["outcome"] != wantOutcome {
				continue
			}
			found = true
			if got := e.Attrs["key"]; got != key {
				t.Errorf("%s span key attr = %v, want %s", wantOutcome, got, key)
			}
		}
		if !found {
			t.Fatalf("no table.cache span with outcome %q", wantOutcome)
		}
	}
}
