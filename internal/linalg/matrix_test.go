package linalg

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFactorSolveKnownSystem(t *testing.T) {
	// 3x3 system with a hand-computed solution.
	a := NewMatrix(3, 3)
	vals := [][]float64{
		{2, 1, -1},
		{-3, -1, 2},
		{-2, 1, 2},
	}
	for i := range vals {
		for j := range vals[i] {
			a.Set(i, j, vals[i][j])
		}
	}
	f, err := Factor(a)
	if err != nil {
		t.Fatalf("Factor: %v", err)
	}
	x := make([]float64, 3)
	if err := f.SolveInPlace([]float64{8, -11, -3}, x); err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want := []float64{2, 3, -1}
	for i := range want {
		if math.Abs(x[i]-want[i]) > 1e-12 {
			t.Errorf("x[%d] = %g, want %g", i, x[i], want[i])
		}
	}
}

func TestFactorSingular(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(0, 1, 2)
	a.Set(1, 0, 2)
	a.Set(1, 1, 4) // row 1 = 2 * row 0
	if _, err := Factor(a); err != ErrSingular {
		t.Fatalf("Factor singular matrix: err = %v, want ErrSingular", err)
	}
}

func TestFactorNonSquare(t *testing.T) {
	a := NewMatrix(2, 3)
	if _, err := Factor(a); err == nil {
		t.Fatal("Factor accepted a non-square matrix")
	}
}

func TestSolveRhsLengthMismatch(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	if err := f.SolveInPlace([]float64{1}, make([]float64, 2)); err == nil {
		t.Fatal("SolveInPlace accepted wrong-length rhs")
	}
}

func TestMulVec(t *testing.T) {
	a := NewMatrix(2, 3)
	for j := 0; j < 3; j++ {
		a.Set(0, j, float64(j+1)) // [1 2 3]
		a.Set(1, j, float64(j+4)) // [4 5 6]
	}
	y := a.MulVec([]float64{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Errorf("MulVec = %v, want [6 15]", y)
	}
}

func TestTranspose(t *testing.T) {
	a := NewMatrix(2, 3)
	a.Set(0, 2, 5)
	a.Set(1, 0, 7)
	tr := a.Transpose()
	if tr.Rows != 3 || tr.Cols != 2 {
		t.Fatalf("Transpose shape = %dx%d", tr.Rows, tr.Cols)
	}
	if tr.At(2, 0) != 5 || tr.At(0, 1) != 7 {
		t.Errorf("Transpose values wrong: %v", tr.Data)
	}
}

// Property: for random well-conditioned systems, Solve(A, A·x) == x.
func TestQuickSolveRoundTrip(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(10)
		a := NewMatrix(n, n)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				a.Set(i, j, rng.NormFloat64())
			}
			a.Data[i*n+i] += float64(2 * n)
		}
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.NormFloat64()
		}
		lu, err := Factor(a)
		if err != nil {
			return false
		}
		got := make([]float64, n)
		if err := lu.SolveInPlace(a.MulVec(x), got); err != nil {
			return false
		}
		for i := range x {
			if math.Abs(got[i]-x[i]) > 1e-8*(1+math.Abs(x[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestSolveInPlace(t *testing.T) {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(1, 1, 4)
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	b := []float64{2, 8}
	if err := f.SolveInPlace(b, b); err != nil {
		t.Fatal(err)
	}
	if b[0] != 1 || b[1] != 2 {
		t.Errorf("SolveInPlace = %v, want [1 2]", b)
	}
}

func TestMaxAbsDiff(t *testing.T) {
	a := NewMatrix(2, 2)
	b := NewMatrix(2, 2)
	b.Set(1, 1, -3)
	if got := a.MaxAbsDiff(b); got != 3 {
		t.Errorf("MaxAbsDiff = %g, want 3", got)
	}
}
