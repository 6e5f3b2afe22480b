package linalg

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// sparseSystem returns a random n×n matrix with about density·n²
// off-diagonal nonzeros. Every third diagonal entry is zero, as in the
// source rows of an MNA system, so factoring it needs row exchanges.
func sparseSystem(rng *rand.Rand, n int, density float64) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j && rng.Float64() < density {
				a.Set(i, j, rng.NormFloat64())
			}
		}
		if i%3 != 2 {
			a.Add(i, i, 4+rng.Float64())
		}
		// Keep every row and column nonempty.
		a.Add(i, (i+1)%n, 1)
		a.Add((i+1)%n, i, -1)
	}
	return a
}

func randomVec(rng *rand.Rand, n int) []float64 {
	v := make([]float64, n)
	for i := range v {
		v[i] = rng.NormFloat64()
	}
	return v
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v, dense reference %v", what, i, got[i], want[i])
		}
	}
}

func TestCompressMulVecToMatchesMulVecBits(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 20; trial++ {
		n := 2 + rng.Intn(40)
		a := sparseSystem(rng, n, 0.1)
		s := Compress(a)
		if got, want := s.NNZ(), countNonzero(a.Data); got != want {
			t.Fatalf("NNZ = %d, want %d", got, want)
		}
		x := randomVec(rng, n)
		x[rng.Intn(n)] = 0
		dst := make([]float64, n)
		s.MulVecTo(dst, x)
		sameBits(t, "MulVecTo", dst, a.MulVec(x))
	}
}

// denseSolve is the substitution over every column of the packed
// factors eliminate returns — the solve before factors were compressed.
func denseSolve(f *LU, lu, b []float64) []float64 {
	n := f.n
	x := append([]float64(nil), b...)
	for k, p := range f.swaps {
		x[k], x[p] = x[p], x[k]
	}
	for i := 1; i < n; i++ {
		s := x[i]
		for j, v := range lu[i*n : i*n+i] {
			s -= v * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j, v := range lu[i*n+i+1 : i*n+n] {
			s -= v * x[i+1+j]
		}
		x[i] = s / lu[i*n+i]
	}
	return x
}

func TestCompressedSolveMatchesDenseBits(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		n := 2 + rng.Intn(60)
		a := sparseSystem(rng, n, 0.05)
		f, err := Factor(a)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		packed := a.Clone()
		ref, err := eliminate(packed)
		if err != nil {
			t.Fatal(err)
		}
		lu := packed.Data
		if got, want := f.NNZ(), countNonzero(lu); got != want {
			t.Fatalf("LU NNZ = %d, dense factors hold %d nonzeros", got, want)
		}
		b := randomVec(rng, n)
		want := denseSolve(ref, lu, b)
		got, err := f.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		sameBits(t, "Solve", got, want)
		if err := f.SolveInPlace(b, b); err != nil {
			t.Fatal(err)
		}
		sameBits(t, "aliased SolveInPlace", b, want)
	}
}

// FactorInPlace gives Factor's solves bit for bit, leaves the caller's
// buffer free for reuse, and allocates no dense n×n copy.
func TestFactorInPlaceMatchesFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	const n = 60
	a := sparseSystem(rng, n, 0.05)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	work := a.Clone()
	g, err := FactorInPlace(work)
	if err != nil {
		t.Fatal(err)
	}
	// Scribbling over the workspace must not reach the factorization.
	for i := range work.Data {
		work.Data[i] = math.NaN()
	}
	b := randomVec(rng, n)
	want, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	sameBits(t, "FactorInPlace", got, want)

	// The saving is exactly the dense copy Factor makes.
	bytesPerCall := func(factor func() error) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			if err := factor(); err != nil {
				t.Fatal(err)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 10
	}
	inPlace := bytesPerCall(func() error {
		copy(work.Data, a.Data)
		_, err := FactorInPlace(work)
		return err
	})
	copying := bytesPerCall(func() error {
		_, err := Factor(a)
		return err
	})
	if copying < inPlace+n*n*8 {
		t.Fatalf("FactorInPlace allocates %d B per call, Factor %d B: want at least one dense %d×%d matrix (%d B) less",
			inPlace, copying, n, n, n*n*8)
	}
}

// SolveInPlace must not allocate, whether or not dst aliases b; the
// matrix needs row exchanges, so the aliased case exercises the
// in-place permutation.
func TestSolveInPlaceDoesNotAllocate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	a := sparseSystem(rng, 30, 0.1)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	b := randomVec(rng, 30)
	want, err := f.Solve(b)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]float64, 30)
	buf := make([]float64, 30)
	for _, tc := range []struct {
		name string
		run  func() []float64
	}{
		{"unaliased", func() []float64 {
			if err := f.SolveInPlace(b, dst); err != nil {
				t.Fatal(err)
			}
			return dst
		}},
		{"aliased", func() []float64 {
			copy(buf, b)
			if err := f.SolveInPlace(buf, buf); err != nil {
				t.Fatal(err)
			}
			return buf
		}},
	} {
		if allocs := testing.AllocsPerRun(50, func() { tc.run() }); allocs != 0 {
			t.Errorf("%s: %v allocations per solve, want 0", tc.name, allocs)
		}
		sameBits(t, tc.name, tc.run(), want)
	}
}

// ladderSystem is an MNA-shaped n×n matrix: a tridiagonal conductance
// band plus sparse long-range terms.
func ladderSystem(n int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		a.Set(i, i, 2.1)
		if i+1 < n {
			a.Set(i, i+1, -1)
			a.Set(i+1, i, -1)
		}
		a.Add(i, (7*i+3)%n, 0.1)
	}
	return a
}

func BenchmarkFactor(b *testing.B) {
	for _, n := range []int{37, 111} {
		a := ladderSystem(n)
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Factor(a); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkFactorSolveInPlace(b *testing.B) {
	for _, n := range []int{37, 111} {
		f, err := Factor(ladderSystem(n))
		if err != nil {
			b.Fatal(err)
		}
		rhs := make([]float64, n)
		x := make([]float64, n)
		for i := range rhs {
			rhs[i] = float64(i%5) - 2
		}
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := f.SolveInPlace(rhs, x); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
