package table

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"clockrlc/internal/check"
	"clockrlc/internal/units"
)

func TestCacheKeyStability(t *testing.T) {
	cfg, axes := freeConfig(), tinyAxes()
	k1, err := CacheKey(cfg, axes)
	if err != nil {
		t.Fatal(err)
	}
	k2, err := CacheKey(cfg, axes)
	if err != nil {
		t.Fatal(err)
	}
	if k1 != k2 {
		t.Errorf("key not stable: %s vs %s", k1, k2)
	}
	if len(k1) != 64 {
		t.Errorf("key %q is not a hex SHA-256", k1)
	}

	// Name and Workers are provenance/execution details, not value
	// inputs: they must not change the address.
	relabeled := cfg
	relabeled.Name = "completely/different"
	relabeled.Workers = 7
	if k, _ := CacheKey(relabeled, axes); k != k1 {
		t.Error("Name/Workers leaked into the cache key")
	}

	// Every physical parameter and every axis point must change it.
	perturbed := []Config{}
	c := cfg
	c.Frequency *= 2
	perturbed = append(perturbed, c)
	c = cfg
	c.Thickness *= 1.5
	perturbed = append(perturbed, c)
	c = cfg
	c.SubW = 8
	perturbed = append(perturbed, c)
	for i, pc := range perturbed {
		if k, err := CacheKey(pc, axes); err != nil {
			t.Fatal(err)
		} else if k == k1 {
			t.Errorf("perturbed config %d hashed to the same key", i)
		}
	}
	ax2 := tinyAxes()
	ax2.Lengths[1] *= 1.01
	if k, err := CacheKey(cfg, ax2); err != nil {
		t.Fatal(err)
	} else if k == k1 {
		t.Error("perturbed axes hashed to the same key")
	}

	bad := cfg
	bad.Thickness = 0
	if _, err := CacheKey(bad, axes); err == nil {
		t.Error("CacheKey accepted an unbuildable config")
	}
}

// The acceptance criterion of the cache: a hit constructs a ready set
// with zero field-solver calls and lookups bit-identical to the cold
// build it was populated from.
func TestCacheHitZeroSolverCallsBitIdentical(t *testing.T) {
	c, err := NewCache(filepath.Join(t.TempDir(), "cache"))
	if err != nil {
		t.Fatal(err)
	}
	cfg, axes := freeConfig(), tinyAxes()

	cold, err := c.GetOrBuild(cfg, axes)
	if err != nil {
		t.Fatal(err)
	}

	solves0 := tableSolves.Value()
	hits0, _, _, _ := CacheStats()
	warm, err := c.GetOrBuild(cfg, axes)
	if err != nil {
		t.Fatal(err)
	}
	if got := tableSolves.Value() - solves0; got != 0 {
		t.Errorf("cache hit ran %d field-solver calls, want 0", got)
	}
	if hits, _, _, _ := CacheStats(); hits-hits0 != 1 {
		t.Errorf("cache_hits += %d, want 1", hits-hits0)
	}

	// Bit-identical stored values and lookups, on and off grid.
	for k, v := range cold.Self.Vals {
		if warm.Self.Vals[k] != v {
			t.Fatalf("self[%d]: cold %g != warm %g", k, v, warm.Self.Vals[k])
		}
	}
	for k, v := range cold.Mutual.Vals {
		if warm.Mutual.Vals[k] != v {
			t.Fatalf("mutual[%d]: cold %g != warm %g", k, v, warm.Mutual.Vals[k])
		}
	}
	for _, p := range []struct{ w, l float64 }{
		{units.Um(1.7), units.Um(300)},
		{units.Um(3.1), units.Um(900)},
	} {
		a, err1 := cold.SelfL(p.w, p.l)
		b, err2 := warm.SelfL(p.w, p.l)
		if err1 != nil || err2 != nil {
			t.Fatal(err1, err2)
		}
		if a != b {
			t.Errorf("SelfL(%g, %g): cold %g != warm %g", p.w, p.l, a, b)
		}
	}
	m1, _ := cold.MutualL(units.Um(1.5), units.Um(1.5), units.Um(1.2), units.Um(400))
	m2, _ := warm.MutualL(units.Um(1.5), units.Um(1.5), units.Um(1.2), units.Um(400))
	if m1 != m2 {
		t.Errorf("MutualL drifted through the cache: %g vs %g", m1, m2)
	}
}

// The hit re-applies the caller's Name (excluded from the address),
// so one cached sweep serves differently labelled sets.
func TestCacheHitAppliesCallerName(t *testing.T) {
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	cfg, axes := freeConfig(), tinyAxes()
	if _, err := c.GetOrBuild(cfg, axes); err != nil {
		t.Fatal(err)
	}
	other := cfg
	other.Name = "M7/coplanar"
	s, ok, err := c.Get(other, axes)
	if err != nil || !ok {
		t.Fatalf("expected a hit, got ok=%v err=%v", ok, err)
	}
	if s.Config.Name != "M7/coplanar" {
		t.Errorf("hit kept stored name %q", s.Config.Name)
	}
}

// A corrupt entry (torn write from a crashed peer, bit rot) is
// counted and treated as a miss; the rebuild atomically replaces it.
func TestCacheCorruptEntryIsMissAndHeals(t *testing.T) {
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
		t.Fatal(err)
	}
	if err := os.WriteFile(c.Path(key), raw[:len(raw)/3], 0o644); err != nil {
		t.Fatal(err)
	}

	_, _, _, corrupt0 := CacheStats()
	if _, ok, err := c.Get(cfg, axes); err != nil || ok {
		t.Fatalf("corrupt entry: ok=%v err=%v, want miss", ok, err)
	}
	if _, _, _, corrupt := CacheStats(); corrupt-corrupt0 != 1 {
		t.Errorf("cache_corrupt += %d, want 1", corrupt-corrupt0)
	}
	// GetOrBuild heals the entry; the next Get is a clean hit again.
	if _, err := c.GetOrBuild(cfg, axes); err != nil {
		t.Fatal(err)
	}
	if _, ok, err := c.Get(cfg, axes); err != nil || !ok {
		t.Errorf("healed entry: ok=%v err=%v, want hit", ok, err)
	}
}

// An entry whose content no longer hashes to its own file name (a
// renamed file, a foreign artifact dropped into the cache directory)
// must not be served for that address.
func TestCacheRejectsMisfiledEntry(t *testing.T) {
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
	// File the valid entry under a different address.
	other := cfg
	other.Frequency *= 2
	otherKey, err := CacheKey(other, axes)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(c.Path(key))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(c.Path(otherKey), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, ok, _ := c.Get(other, axes); ok {
		t.Error("cache served an entry that hashes to a different address")
	}
}

func TestCacheValidation(t *testing.T) {
	if _, err := NewCache(""); err == nil {
		t.Error("NewCache accepted an empty directory")
	}
	c, err := NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Put(nil); err == nil {
		t.Error("Put accepted a nil set")
	}
	if !strings.HasPrefix(filepath.Base(c.Path("abc")), "abc") {
		t.Errorf("Path(%q) = %q", "abc", c.Path("abc"))
	}
}

// BenchmarkCacheOpen times one open of a warm cache entry on the
// default axes: a GetOrBuildCtx hit (open, aligned read, checksum, and
// under an armed policy the post-load audit), which is what the
// daemon's registry pays when it reads an evicted set back in.
func BenchmarkCacheOpen(b *testing.B) {
	c, err := NewCache(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	ctx, cfg, axes := context.Background(), freeConfig(), DefaultAxes()
	if _, err := c.GetOrBuildCtx(ctx, cfg, axes); err != nil {
		b.Fatal(err)
	}
	prev := check.Active().Policy()
	defer check.SetPolicy(prev)
	for _, p := range []check.Policy{check.Off, check.Warn} {
		b.Run(p.String(), func(b *testing.B) {
			check.SetPolicy(p)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := c.GetOrBuildCtx(ctx, cfg, axes); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
