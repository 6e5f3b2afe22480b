package table

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// WithLookup must hand concurrent requests their own policies without
// ever writing the shared set (run under -race) and without giving
// the copy ownership of the file mapping.
func TestWithLookupSharesGridsWithoutMutation(t *testing.T) {
	dir := t.TempDir()
	set, err := Build(freeConfig(), tinyAxes())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "set.rlct")
	if err := set.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	shared, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer shared.Close()

	// An off-axis width: extrapolate answers, error refuses.
	w := shared.Axes.Widths[len(shared.Axes.Widths)-1] * 4
	l := shared.Axes.Lengths[0]
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				if i%2 == 0 {
					s := shared.WithLookup(LookupError)
					if _, err := s.SelfL(w, l); !errors.Is(err, ErrOutOfRange) {
						t.Errorf("LookupError copy: err = %v, want ErrOutOfRange", err)
						return
					}
				} else {
					s := shared.WithLookup(LookupExtrapolate)
					if _, err := s.SelfL(w, l); err != nil {
						t.Errorf("LookupExtrapolate copy: %v", err)
						return
					}
				}
			}
		}(i)
	}
	wg.Wait()
	if shared.Lookup != LookupExtrapolate {
		t.Errorf("shared set's policy was mutated to %v", shared.Lookup)
	}

	// Same-policy requests reuse the set itself; different-policy
	// copies never own the mapping.
	if s := shared.WithLookup(shared.Lookup); s != shared {
		t.Error("same-policy WithLookup did not return the receiver")
	}
	cp := shared.WithLookup(LookupClamp)
	if cp == shared {
		t.Error("different-policy WithLookup returned the receiver")
	}
	if cp.Mapped() {
		t.Error("policy copy claims to own the file mapping")
	}
	if shared.Mapped() != true {
		t.Skip("set not mapped on this platform; ownership check not applicable")
	}
	if err := cp.Close(); err != nil {
		t.Fatal(err)
	}
	if !shared.Mapped() {
		t.Error("closing the policy copy released the original's mapping")
	}
}

// A loaded library owns one mapping per v3 set; Close must release
// them all and be idempotent.
func TestLibraryCloseReleasesMappings(t *testing.T) {
	dir := t.TempDir()
	l := NewLibrary()
	for _, name := range []string{"M6/coplanar", "M6/b"} {
		cfg := freeConfig()
		cfg.Name = name
		s, err := Build(cfg, tinyAxes())
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Add(s); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.SaveDir(dir); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	mapped := 0
	for _, name := range loaded.Names() {
		s, err := loaded.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if s.Mapped() {
			mapped++
		}
	}
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}
	for _, name := range loaded.Names() {
		s, _ := loaded.Get(name)
		if s.Mapped() {
			t.Errorf("set %s still mapped after Library.Close", name)
		}
	}
	if err := loaded.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if mapped == 0 {
		t.Log("no set was mmap-backed on this platform; Close exercised the no-op path")
	}
}

// A LoadDir that fails part-way must close the sets it had already
// opened: after a later file fails to load, or Add rejects a
// duplicate name, no mapping of an earlier file may stay in the
// process. Read from /proc/self/maps, so Linux only.
func TestLoadDirErrorReleasesMappings(t *testing.T) {
	if _, err := os.Stat("/proc/self/maps"); err != nil {
		t.Skip("no /proc/self/maps on this platform")
	}
	mapped := func(path string) bool {
		t.Helper()
		maps, err := os.ReadFile("/proc/self/maps")
		if err != nil {
			t.Fatal(err)
		}
		return strings.Contains(string(maps), path)
	}
	set, err := Build(freeConfig(), tinyAxes())
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name  string
		later func(dir string) error
	}{
		{"broken later file", func(dir string) error {
			return os.WriteFile(filepath.Join(dir, "z.json"), []byte("{not json"), 0o644)
		}},
		{"duplicate set name", func(dir string) error {
			return set.SaveFile(filepath.Join(dir, "z.rlct"))
		}},
	} {
		dir := t.TempDir()
		good := filepath.Join(dir, "a.rlct")
		if err := set.SaveFile(good); err != nil {
			t.Fatal(err)
		}
		probe, err := LoadFile(good)
		if err != nil {
			t.Fatal(err)
		}
		if !probe.Mapped() || !mapped(good) {
			probe.Close()
			t.Skip("sets are not mmap-backed on this platform")
		}
		probe.Close()
		if err := tc.later(dir); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadDir(dir); err == nil {
			t.Fatalf("%s: LoadDir succeeded", tc.name)
		}
		if mapped(dir + string(filepath.Separator)) {
			t.Errorf("%s: a file in %s is still mapped after the failed LoadDir", tc.name, dir)
		}
	}
}
