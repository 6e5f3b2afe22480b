package table

import (
	"errors"
	"math"
	"math/rand"
	"runtime/debug"
	"strings"
	"testing"

	"clockrlc/internal/check"
	"clockrlc/internal/fault"
	"clockrlc/internal/spline"
	"clockrlc/internal/units"
)

// batchLookupQueries builds n (w, l) self queries and n (w1, w2, sp,
// l) mutual queries over ndistinct repeated geometries, mixing
// in-range and out-of-range coordinates.
func batchLookupQueries(rng *rand.Rand, s *Set, n, ndistinct int) (ws, ls, w1s, w2s, sps, mls []float64) {
	type geo struct{ w, l, w1, w2, sp, ml float64 }
	pick := func(ax []float64) float64 {
		lo, hi := ax[0], ax[len(ax)-1]
		switch r := rng.Float64(); {
		case r < 0.12:
			return lo * (0.4 + 0.5*rng.Float64())
		case r > 0.88:
			return hi * (1 + 0.4*rng.Float64())
		default:
			return lo + rng.Float64()*(hi-lo)
		}
	}
	geos := make([]geo, ndistinct)
	for i := range geos {
		geos[i] = geo{
			w: pick(s.Axes.Widths), l: pick(s.Axes.Lengths),
			w1: pick(s.Axes.Widths), w2: pick(s.Axes.Widths),
			sp: pick(s.Axes.Spacings), ml: pick(s.Axes.Lengths),
		}
	}
	for i := 0; i < n; i++ {
		g := geos[rng.Intn(ndistinct)]
		ws, ls = append(ws, g.w), append(ls, g.l)
		w1s, w2s = append(w1s, g.w1), append(w2s, g.w2)
		sps, mls = append(sps, g.sp), append(mls, g.ml)
	}
	return
}

// batchSizes run from a single query to a 1,024-query batch, the
// size of one extract-batch shielding group.
var batchSizes = []int{1, 2, 63, 64, 129, 1024}

// referenceLookup is a lookup made independently of the batch path:
// the lookup policy applied to each coordinate by hand, then one
// spline.Grid.Eval. Only LookupClamp moves a coordinate.
func referenceLookup(t *testing.T, s *Set, g *spline.Grid, x ...float64) float64 {
	t.Helper()
	axes := [][]float64{s.Axes.Widths, s.Axes.Lengths}
	if len(x) == 4 {
		axes = [][]float64{s.Axes.Widths, s.Axes.Widths, s.Axes.Spacings, s.Axes.Lengths}
	}
	if s.Lookup == LookupClamp {
		for d, ax := range axes {
			x[d] = math.Max(ax[0], math.Min(x[d], ax[len(ax)-1]))
		}
	}
	v, err := g.Eval(x...)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestLookupBatchMatchesScalarBitwise: under every lookup policy and
// at every batch size, the batch lookups return bit-identical values
// to the scalar loop and to referenceLookup, and advance the same
// counters by the same amounts.
func TestLookupBatchMatchesScalarBitwise(t *testing.T) {
	for _, policy := range []LookupPolicy{LookupExtrapolate, LookupClamp} {
		for _, n := range batchSizes {
			s := syntheticSet(t)
			s.Lookup = policy
			rng := rand.New(rand.NewSource(42 + int64(n)))
			// About two queries per geometry: repeats for the dedup,
			// and many distinct contractions.
			ws, ls, w1s, w2s, sps, mls := batchLookupQueries(rng, s, n, 1+n/2)

			wantSelf := make([]float64, n)
			for i := range ws {
				v, err := s.SelfL(ws[i], ls[i])
				if err != nil {
					t.Fatal(err)
				}
				wantSelf[i] = v
			}
			wantMut := make([]float64, n)
			for i := range w1s {
				v, err := s.MutualL(w1s[i], w2s[i], sps[i], mls[i])
				if err != nil {
					t.Fatal(err)
				}
				wantMut[i] = v
			}

			hits0, clamped0 := lookupHits.Value(), lookupClamped.Value()
			gotSelf := make([]float64, n)
			if err := s.SelfLBatch(ws, ls, gotSelf); err != nil {
				t.Fatalf("policy %v n=%d: %v", policy, n, err)
			}
			gotMut := make([]float64, n)
			if err := s.MutualLBatch(w1s, w2s, sps, mls, gotMut); err != nil {
				t.Fatalf("policy %v n=%d: %v", policy, n, err)
			}
			for i := range gotSelf {
				if math.Float64bits(gotSelf[i]) != math.Float64bits(wantSelf[i]) {
					t.Fatalf("policy %v n=%d SelfL query %d: batch %v != scalar %v (bitwise)", policy, n, i, gotSelf[i], wantSelf[i])
				}
				if ref := referenceLookup(t, s, s.Self, ws[i], ls[i]); math.Float64bits(gotSelf[i]) != math.Float64bits(ref) {
					t.Fatalf("policy %v n=%d SelfL query %d: batch %v != Grid.Eval %v (bitwise)", policy, n, i, gotSelf[i], ref)
				}
			}
			for i := range gotMut {
				if math.Float64bits(gotMut[i]) != math.Float64bits(wantMut[i]) {
					t.Fatalf("policy %v n=%d MutualL query %d: batch %v != scalar %v (bitwise)", policy, n, i, gotMut[i], wantMut[i])
				}
				if ref := referenceLookup(t, s, s.Mutual, w1s[i], w2s[i], sps[i], mls[i]); math.Float64bits(gotMut[i]) != math.Float64bits(ref) {
					t.Fatalf("policy %v n=%d MutualL query %d: batch %v != Grid.Eval %v (bitwise)", policy, n, i, gotMut[i], ref)
				}
			}
			// The batch pass classifies exactly like the scalar pass did.
			batchHits := lookupHits.Value() - hits0
			batchClamped := lookupClamped.Value() - clamped0
			if batchHits+batchClamped != int64(2*n) {
				t.Errorf("policy %v n=%d: counters classified %d lookups, want %d",
					policy, n, batchHits+batchClamped, 2*n)
			}
		}
	}
}

// TestLookupBatchErrorPolicy: under LookupError the batch stops at the
// first out-of-range query in input order with a *BatchError that
// unwraps to ErrOutOfRange, exactly as the scalar loop would. At
// every batch size the first failure in input order is the one named
// — also when a later query fails too — and fault.SplineLookup is
// checked once per query, in input order.
func TestLookupBatchErrorPolicy(t *testing.T) {
	s := syntheticSet(t)
	s.Lookup = LookupError
	wOK, lOK := units.Um(2), units.Um(300)
	wBad := units.Um(40) // beyond the 4 µm width axis

	ws := []float64{wOK, wOK, wBad, wOK}
	ls := []float64{lOK, lOK, lOK, lOK}
	out := make([]float64, 4)
	errs0 := lookupOOBErrors.Value()
	err := s.SelfLBatch(ws, ls, out)
	if err == nil {
		t.Fatal("want error for out-of-range query under LookupError")
	}
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 2 {
		t.Fatalf("got %v, want *BatchError with Index 2", err)
	}
	if !errors.Is(err, ErrOutOfRange) {
		t.Errorf("%v does not unwrap to ErrOutOfRange", err)
	}
	if got := lookupOOBErrors.Value() - errs0; got != 1 {
		t.Errorf("lookup_oob_errors += %d, want 1", got)
	}

	// Mutual variant, and the scalar error text is preserved inside.
	w1s := []float64{wOK, wBad}
	one := make([]float64, 2)
	err = s.MutualLBatch(w1s, []float64{wOK, wOK}, []float64{units.Um(1.5), units.Um(1.5)}, []float64{lOK, lOK}, one)
	if !errors.As(err, &be) || be.Index != 1 || !errors.Is(err, ErrOutOfRange) {
		t.Fatalf("MutualLBatch: got %v", err)
	}
	if !strings.Contains(err.Error(), "outside table") {
		t.Errorf("batch error lost the scalar diagnosis: %v", err)
	}

	defer fault.Reset()
	for _, n := range batchSizes {
		ws, ls := make([]float64, n), make([]float64, n)
		w1s, w2s, sps := make([]float64, n), make([]float64, n), make([]float64, n)
		for i := 0; i < n; i++ {
			ws[i], ls[i] = wOK, lOK*(1+float64(i)/float64(n))
			w1s[i], w2s[i], sps[i] = wOK, wOK, units.Um(1.5)
		}
		out := make([]float64, n)
		selfBatch := func() error { return s.SelfLBatch(ws, ls, out) }
		mutBatch := func() error { return s.MutualLBatch(w1s, w2s, sps, ls, out) }

		// Out of range at the last query and at one in the middle:
		// the middle one is named.
		first := n / 2
		ws[n-1], ws[first], w1s[n-1], w1s[first] = wBad, wBad, wBad, wBad
		batches := []struct {
			name string
			run  func() error
		}{{"SelfLBatch", selfBatch}, {"MutualLBatch", mutBatch}}
		for _, b := range batches {
			if err := b.run(); !errors.As(err, &be) || be.Index != first || !errors.Is(err, ErrOutOfRange) {
				t.Errorf("%s n=%d: got %v, want *BatchError at %d unwrapping to ErrOutOfRange", b.name, n, err, first)
			}
		}
		ws[n-1], ws[first], w1s[n-1], w1s[first] = wOK, wOK, wOK, wOK

		for _, b := range batches {
			// A rule past the batch's end only counts the checks:
			// one per query, as the scalar loop makes.
			in := fault.NewInjector(1, fault.Rule{Point: fault.SplineLookup, Mode: fault.ModeError, Nth: n + 1})
			fault.Register(in)
			if err := b.run(); err != nil {
				t.Fatalf("%s n=%d: %v", b.name, n, err)
			}
			if got := in.Calls(fault.SplineLookup); got != uint64(n) {
				t.Errorf("%s n=%d: fault.SplineLookup checked %d times, want %d", b.name, n, got, n)
			}
			// The k-th check fails the k-th query: the checks run
			// in input order.
			k := 1 + (n-1)*2/3
			fault.Register(fault.NewInjector(1, fault.Rule{Point: fault.SplineLookup, Mode: fault.ModeError, Nth: k}))
			if err := b.run(); !errors.As(err, &be) || be.Index != k-1 || !errors.Is(err, fault.ErrInjected) {
				t.Errorf("%s n=%d: got %v, want *BatchError at %d unwrapping to ErrInjected", b.name, n, err, k-1)
			}
			fault.Reset()
		}
	}
}

func TestLookupBatchRejectsBadArgs(t *testing.T) {
	s := syntheticSet(t)
	// Mismatched slice lengths.
	if err := s.SelfLBatch([]float64{1}, []float64{1, 2}, make([]float64, 2)); err == nil {
		t.Error("want error for mismatched slice lengths")
	}
	// Non-positive and NaN coordinates name the offending query.
	var be *BatchError
	err := s.SelfLBatch([]float64{units.Um(1), -1}, []float64{units.Um(100), units.Um(100)}, make([]float64, 2))
	if !errors.As(err, &be) || be.Index != 1 {
		t.Fatalf("got %v, want *BatchError at index 1", err)
	}
	err = s.MutualLBatch([]float64{math.NaN()}, []float64{1}, []float64{1}, []float64{1}, make([]float64, 1))
	if !errors.As(err, &be) || be.Index != 0 {
		t.Fatalf("NaN: got %v, want *BatchError at index 0", err)
	}
	// Empty batches are fine.
	if err := s.SelfLBatch(nil, nil, nil); err != nil {
		t.Error(err)
	}
	if err := s.MutualLBatch(nil, nil, nil, nil, nil); err != nil {
		t.Error(err)
	}
}

// TestLookupRejectsNonFinite: a NaN or infinite argument in any
// position is the "arguments must be positive" error from the scalar
// and batch lookups under every policy, with checks off — never a NaN
// with a nil error, and never a value clamped from +Inf.
func TestLookupRejectsNonFinite(t *testing.T) {
	s := syntheticSet(t)
	w, sp, l := units.Um(2), units.Um(1.5), units.Um(300)
	for _, policy := range []LookupPolicy{LookupExtrapolate, LookupClamp, LookupError} {
		s.Lookup = policy
		for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			for arg := 0; arg < 4; arg++ {
				q := []float64{w, w, sp, l}
				q[arg] = bad
				if v, err := s.MutualL(q[0], q[1], q[2], q[3]); err == nil || !strings.Contains(err.Error(), "arguments must be positive") {
					t.Errorf("policy %v MutualL%v = %g, %v; want the positivity error", policy, q, v, err)
				}
				var be *BatchError
				err := s.MutualLBatch([]float64{w, q[0]}, []float64{w, q[1]}, []float64{sp, q[2]}, []float64{l, q[3]}, make([]float64, 2))
				if !errors.As(err, &be) || be.Index != 1 || !strings.Contains(err.Error(), "arguments must be positive") {
					t.Errorf("policy %v MutualLBatch with %v: got %v, want the positivity error at query 1", policy, q, err)
				}
				if arg >= 2 {
					continue
				}
				sq := []float64{w, l}
				sq[arg] = bad
				if v, err := s.SelfL(sq[0], sq[1]); err == nil || !strings.Contains(err.Error(), "arguments must be positive") {
					t.Errorf("policy %v SelfL%v = %g, %v; want the positivity error", policy, sq, v, err)
				}
				err = s.SelfLBatch([]float64{w, sq[0]}, []float64{l, sq[1]}, make([]float64, 2))
				if !errors.As(err, &be) || be.Index != 1 || !strings.Contains(err.Error(), "arguments must be positive") {
					t.Errorf("policy %v SelfLBatch with %v: got %v, want the positivity error at query 1", policy, sq, err)
				}
			}
		}
	}
}

// TestLookupBatchArmedCheck: the armed value checks fire on batch
// results exactly as on scalar ones.
func TestLookupBatchArmedCheck(t *testing.T) {
	defer check.SetPolicy(check.Off)
	check.SetPolicy(check.Off)
	s := syntheticSet(t)
	// Poison one self value so the interpolant goes non-positive right
	// at a knot.
	vals := append([]float64(nil), s.Self.Vals...)
	vals[0] = -1e-9
	rebuilt := syntheticSet(t)
	copy(rebuilt.Self.Vals, vals)
	rebuildSelf(t, rebuilt)

	check.SetPolicy(check.Strict)
	out := make([]float64, 1)
	err := rebuilt.SelfLBatch([]float64{rebuilt.Axes.Widths[0]}, []float64{rebuilt.Axes.Lengths[0]}, out)
	if !errors.Is(err, check.ErrViolation) {
		t.Fatalf("strict batch lookup of a non-positive value: got %v, want ErrViolation", err)
	}
	var be *BatchError
	if !errors.As(err, &be) || be.Index != 0 {
		t.Errorf("violation does not name the query: %v", err)
	}
}

// TestOneQueryLookupsAllocateNothing: SelfL and MutualL are one-query
// batch calls, and with checks off, no fault injector and no trace
// sink they allocate nothing once the pools are warm — the sort of a
// one-query spline batch included.
func TestOneQueryLookupsAllocateNothing(t *testing.T) {
	// No collection during the measurement, so the pools stay warm.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	check.SetPolicy(check.Off)
	fault.Reset()
	s := syntheticSet(t)
	w, sp, l := units.Um(2), units.Um(1.5), units.Um(300)
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"SelfL", func() error { _, err := s.SelfL(w, l); return err }},
		{"MutualL", func() error { _, err := s.MutualL(w, w, sp, l); return err }},
	} {
		if err := tc.run(); err != nil { // warm the pools
			t.Fatal(err)
		}
		allocs := testing.AllocsPerRun(100, func() {
			if err := tc.run(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > poolMissAllocs {
			t.Errorf("%s allocates %v per call, want at most %d", tc.name, allocs, poolMissAllocs)
		}
	}
}
