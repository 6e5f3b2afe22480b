package table

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"
)

// WithLookup must hand concurrent requests their own policies without
// ever writing the shared set (run under -race).
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

	// Same-policy requests reuse the set itself; a different policy
	// gets a copy.
	if s := shared.WithLookup(shared.Lookup); s != shared {
		t.Error("same-policy WithLookup did not return the receiver")
	}
	if cp := shared.WithLookup(LookupClamp); cp == shared {
		t.Error("different-policy WithLookup returned the receiver")
	}
}
