package sim

// The dense reference transient: the step loop as it ran before G, C
// and the LU factors were compressed — dense Matrix.MulVec products and
// dense partial-pivot LU substitution over every column. The
// compressed loop must reproduce it bit for bit.

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime/debug"
	"testing"

	"clockrlc/internal/linalg"
	"clockrlc/internal/netlist"
)

// denseLU is a packed row-major LU factorization with partial pivoting
// that keeps every factor entry, zeros included.
type denseLU struct {
	n   int
	lu  []float64
	piv []int
}

func denseFactor(a *linalg.Matrix) (*denseLU, error) {
	n := a.Rows
	f := &denseLU{n: n, lu: append([]float64(nil), a.Data...), piv: make([]int, n)}
	for i := range f.piv {
		f.piv[i] = i
	}
	lu := f.lu
	for k := 0; k < n; k++ {
		p, max := k, math.Abs(lu[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(lu[i*n+k]); v > max {
				p, max = i, v
			}
		}
		if max == 0 || math.IsNaN(max) || math.IsInf(max, 0) {
			return nil, errors.New("dense oracle: singular or overflowing pivot")
		}
		if p != k {
			rowP, rowK := lu[p*n:p*n+n], lu[k*n:k*n+n]
			for j := range rowK {
				rowK[j], rowP[j] = rowP[j], rowK[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		pivot := lu[k*n+k]
		for i := k + 1; i < n; i++ {
			m := lu[i*n+k] / pivot
			lu[i*n+k] = m
			if m == 0 {
				continue
			}
			rowI, rowK := lu[i*n+k+1:i*n+n], lu[k*n+k+1:k*n+n]
			for j := range rowK {
				rowI[j] -= m * rowK[j]
			}
		}
	}
	return f, nil
}

func (f *denseLU) solve(b []float64) ([]float64, error) {
	n := f.n
	x := make([]float64, n)
	for i := range x {
		x[i] = b[f.piv[i]]
	}
	for i := 1; i < n; i++ {
		s := x[i]
		for j, v := range f.lu[i*n : i*n+i] {
			s -= v * x[j]
		}
		x[i] = s
	}
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j, v := range f.lu[i*n+i+1 : i*n+n] {
			s -= v * x[i+1+j]
		}
		x[i] = s / f.lu[i*n+i]
	}
	if !finiteVec(x) {
		return nil, ErrDiverged
	}
	return x, nil
}

// finiteVec reports whether every component of x is finite.
func finiteVec(x []float64) bool {
	for _, v := range x {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return false
		}
	}
	return true
}

// denseAssemble stamps c's netlist into dense G and C on c's
// numbering, element by element, as assembly did before G and C had a
// compiled pattern.
func denseAssemble(c *Circuit) (g, cm *linalg.Matrix) {
	n, nl := c.dim, c.nl
	g, cm = linalg.NewMatrix(n, n), linalg.NewMatrix(n, n)
	row := func(name string) int {
		i, ok := c.nodeIdx[name]
		if !ok {
			return -1 // ground
		}
		return c.pos[i]
	}
	lRow := c.pos[len(c.nodeIdx):]
	stampPair := func(mat *linalg.Matrix, a, b int, v float64) {
		if a >= 0 {
			mat.Data[a*n+a] += v
		}
		if b >= 0 {
			mat.Data[b*n+b] += v
		}
		if a >= 0 && b >= 0 {
			mat.Data[a*n+b] += -v
			mat.Data[b*n+a] += -v
		}
	}
	stampBranch := func(r, a, b int) {
		if a >= 0 {
			g.Data[a*n+r] += 1
			g.Data[r*n+a] += 1
		}
		if b >= 0 {
			g.Data[b*n+r] += -1
			g.Data[r*n+b] += -1
		}
	}
	for _, r := range nl.Resistors {
		stampPair(g, row(r.A), row(r.B), 1/r.R)
	}
	for _, e := range nl.Capacitors {
		stampPair(cm, row(e.A), row(e.B), e.C)
	}
	for k, l := range nl.Inductors {
		r := lRow[k]
		stampBranch(r, row(l.A), row(l.B))
		cm.Data[r*n+r] += -l.L
	}
	for _, mu := range nl.Mutuals {
		r1, r2 := lRow[mu.L1], lRow[mu.L2]
		cm.Data[r1*n+r2] += -mu.M
		cm.Data[r2*n+r1] += -mu.M
	}
	for k, v := range nl.VSources {
		stampBranch(c.srcRow[k], row(v.A), row(v.B))
	}
	return g, cm
}

// denseTransient is the reference fixed-step trapezoidal run, on the
// numbering Compile gives.
func denseTransient(nl *netlist.Netlist, h, tstop float64, probes []string) (*Result, error) {
	m, err := Compile(nl)
	if err != nil {
		return nil, err
	}
	g, cm := denseAssemble(m)
	b0 := make([]float64, m.dim)
	m.rhs(0, b0)
	gf, err := denseFactor(g)
	if err != nil {
		return nil, err
	}
	x, err := gf.solve(b0)
	if err != nil {
		return nil, err
	}
	a := linalg.NewMatrix(m.dim, m.dim)
	copy(a.Data, g.Data)
	s := 2 / h
	for i, v := range cm.Data {
		a.Data[i] += s * v
	}
	af, err := denseFactor(a)
	if err != nil {
		return nil, err
	}
	steps := int(tstop/h + 0.5)
	res := &Result{Probes: make(map[string][]float64, len(probes))}
	rows, err := m.probeRows(probes)
	if err != nil {
		return nil, err
	}
	record := func(t float64, x []float64) {
		res.Time = append(res.Time, t)
		for k, p := range probes {
			var v float64
			if idx := rows[k]; idx >= 0 {
				v = x[idx]
			}
			res.Probes[p] = append(res.Probes[p], v)
		}
	}
	record(0, x)
	bPrev := make([]float64, m.dim)
	bNext := make([]float64, m.dim)
	rhsVec := make([]float64, m.dim)
	for n := 1; n <= steps; n++ {
		t0, t1 := float64(n-1)*h, float64(n)*h
		cx := cm.MulVec(x)
		gx := g.MulVec(x)
		m.rhs(t0, bPrev)
		m.rhs(t1, bNext)
		for i := range rhsVec {
			rhsVec[i] = bPrev[i] + (bNext[i] + s*cx[i] - gx[i])
		}
		if !finiteVec(rhsVec) {
			return nil, ErrDiverged
		}
		if x, err = af.solve(rhsVec); err != nil {
			return nil, err
		}
		record(t1, x)
	}
	return res, nil
}

// Clock-tree stage shape: a driver, two trunk ladders and four arm
// ladders to four sinks with unequal loads.
const (
	stageSlew = 50e-12
	stageStep = stageSlew / 100
)

var stageSinks = []string{"s0", "s1", "s2", "s3"}

func stageNetlist(tb testing.TB, withL bool, sections int) *netlist.Netlist {
	tb.Helper()
	trunk := netlist.SegmentRLC{R: 62, L: 1.6e-9, C: 0.31e-12}
	arm := netlist.SegmentRLC{R: 31, L: 0.82e-9, C: 0.155e-12}
	if !withL {
		trunk.L, arm.L = 0, 0
	}
	nl := netlist.New()
	nl.AddV("vsrc", "drv", netlist.Ground, netlist.Ramp{V0: 0, V1: 1, Start: stageStep, Rise: stageSlew})
	nl.AddR("rdrv", "drv", "r", 22)
	mustLadder(tb, nl, "tl", "r", "L", trunk, sections)
	mustLadder(tb, nl, "tr", "r", "R", trunk, sections)
	splits := []string{"L", "L", "R", "R"}
	loads := []float64{1, 1.07, 0.93, 1.21}
	for i, s := range stageSinks {
		mustLadder(tb, nl, "a"+s, splits[i], s, arm, sections)
		nl.AddC("c"+s, s, netlist.Ground, 18e-15*loads[i])
	}
	return nl
}

func mustLadder(tb testing.TB, nl *netlist.Netlist, prefix, from, to string, seg netlist.SegmentRLC, sections int) []int {
	tb.Helper()
	inds, err := nl.AddLadder(prefix, from, to, seg, sections)
	if err != nil {
		tb.Fatal(err)
	}
	return inds
}

// coupledNetlist is an aggressor–victim–aggressor bus whose section
// inductors are all mutually coupled, as the crosstalk and bus models
// build them; the victim is held low by its own source.
func coupledNetlist(tb testing.TB) *netlist.Netlist {
	tb.Helper()
	seg := netlist.SegmentRLC{R: 40, L: 2.4e-9, C: 0.2e-12}
	const sections = 4
	nl := netlist.New()
	var inds []int
	for _, w := range []string{"a1", "v", "a2"} {
		var wave netlist.Waveform = netlist.Ramp{V0: 0, V1: 1, Start: 5e-12, Rise: 30e-12}
		if w == "v" {
			wave = netlist.DC(0)
		}
		nl.AddV(w+".src", w+".drv", netlist.Ground, wave)
		nl.AddR(w+".rdrv", w+".drv", w+".in", 25)
		inds = append(inds, mustLadder(tb, nl, w, w+".in", w+".out", seg, sections)...)
		nl.AddC(w+".cl", w+".out", netlist.Ground, 15e-15)
	}
	lsec := seg.L / sections
	for i := range inds {
		for j := i + 1; j < len(inds); j++ {
			wire, sec := j/sections-i/sections, j%sections-i%sections
			if wire == 0 {
				continue // sections of one wire: series, not coupled here
			}
			nl.AddK(fmt.Sprintf("k.%d.%d", i, j), inds[i], inds[j],
				0.35*lsec/float64(wire)/float64(1+sec*sec))
		}
	}
	return nl
}

// multiSourceNetlist has a grounded ramp, a floating PWL source stacked
// on top of it, and an independent DC-offset driver on a second net.
func multiSourceNetlist(tb testing.TB) *netlist.Netlist {
	tb.Helper()
	nl := netlist.New()
	nl.AddV("v1", "a", netlist.Ground, netlist.Ramp{V0: 0, V1: 1.2, Start: 2e-12, Rise: 40e-12})
	nl.AddV("v2", "b", "a", netlist.PWL{T: []float64{0, 20e-12, 60e-12, 90e-12}, V: []float64{0, 0.3, -0.2, 0.1}})
	nl.AddV("v3", "c", "gnd", netlist.DC(0.4))
	nl.AddR("ra", "b", "x", 30)
	mustLadder(tb, nl, "w1", "x", "y", netlist.SegmentRLC{R: 55, L: 1.1e-9, C: 0.18e-12}, 5)
	nl.AddR("rc", "c", "z", 45)
	mustLadder(tb, nl, "w2", "z", "y", netlist.SegmentRLC{R: 20, C: 0.09e-12}, 3)
	nl.AddC("cy", "y", netlist.Ground, 25e-15)
	return nl
}

// randomLadders chains seeded random RLC and RC ladders from one
// driver, with a random load at each junction.
func randomLadders(tb testing.TB, seed int64) (*netlist.Netlist, []string) {
	tb.Helper()
	rng := rand.New(rand.NewSource(seed))
	u := func(lo, hi float64) float64 { return lo + rng.Float64()*(hi-lo) }
	nl := netlist.New()
	nl.AddV("v", "drv", netlist.Ground, netlist.Ramp{V0: 0, V1: 1, Start: u(0, 5e-12), Rise: u(10e-12, 80e-12)})
	nl.AddR("rdrv", "drv", "j0", u(5, 60))
	probes := []string{"j0"}
	for k := 1; k <= 1+rng.Intn(3); k++ {
		seg := netlist.SegmentRLC{R: u(5, 200), L: u(0.2e-9, 4e-9), C: u(0.05e-12, 0.6e-12)}
		if rng.Intn(3) == 0 {
			seg.L = 0
		}
		from, to := fmt.Sprintf("j%d", k-1), fmt.Sprintf("j%d", k)
		mustLadder(tb, nl, fmt.Sprintf("w%d", k), from, to, seg, 1+rng.Intn(8))
		nl.AddC(fmt.Sprintf("cl%d", k), to, netlist.Ground, u(2e-15, 60e-15))
		probes = append(probes, to)
	}
	return nl, probes
}

func TestTransientMatchesDenseOracleBits(t *testing.T) {
	type tc struct {
		name     string
		nl       *netlist.Netlist
		h, tstop float64
		probes   []string
	}
	cases := []tc{
		{"stage-rc", stageNetlist(t, false, 6), stageStep, 1500 * stageStep, stageSinks},
		{"stage-rlc", stageNetlist(t, true, 6), stageStep, 1500 * stageStep, append([]string{"gnd", "r"}, stageSinks...)},
		{"coupled", coupledNetlist(t), 0.25e-12, 400e-12, []string{"v.out", "a1.out", "a2.out"}},
		{"multi-source", multiSourceNetlist(t), 0.2e-12, 300e-12, []string{"x", "y", "z", "b"}},
	}
	for seed := int64(1); seed <= 5; seed++ {
		nl, probes := randomLadders(t, seed)
		cases = append(cases, tc{fmt.Sprintf("random-%d", seed), nl, 0.3e-12, 500e-12, probes})
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := denseTransient(c.nl, c.h, c.tstop, c.probes)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Transient(c.nl, c.h, c.tstop, c.probes)
			if err != nil {
				t.Fatal(err)
			}
			sameBits(t, "time", got.Time, want.Time)
			for _, p := range c.probes {
				sameBits(t, p, got.Probes[p], want.Probes[p])
			}
		})
	}
}

func sameBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d samples, dense oracle has %d", what, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), dense oracle %v (%#x)",
				what, i, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// The step loop must not allocate: a run ten times longer makes no
// more allocations than a short one. Collection is off while counting,
// so only the runs' own allocations are counted: with it on, a -race
// run under load once counted one more for the longer run.
func TestTransientAllocationsIndependentOfSteps(t *testing.T) {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	nl := stageNetlist(t, true, 6)
	allocs := func(steps int) float64 {
		return testing.AllocsPerRun(3, func() {
			if _, err := Transient(nl, stageStep, float64(steps)*stageStep, stageSinks); err != nil {
				t.Fatal(err)
			}
		})
	}
	short, long := allocs(400), allocs(4000)
	if long > short {
		t.Fatalf("allocations grow with steps: %v for 400 steps, %v for 4000", short, long)
	}
}
