package table

import (
	"errors"
	"math"
	"path/filepath"
	"strings"
	"testing"

	"clockrlc/internal/check"
	"clockrlc/internal/spline"
	"clockrlc/internal/units"
)

// syntheticSet assembles a physically plausible set from closed-form
// values (Rosa-style self inductance, coupling fixed well below 1) so
// audit tests need no field solves.
func syntheticSet(t testing.TB) *Set {
	t.Helper()
	return syntheticSetAxes(t, Axes{
		Widths:   []float64{units.Um(1), units.Um(2), units.Um(4)},
		Spacings: []float64{units.Um(1), units.Um(2)},
		Lengths:  []float64{units.Um(100), units.Um(400), units.Um(1600)},
	})
}

func syntheticSetAxes(t testing.TB, axes Axes) *Set {
	t.Helper()
	nw, ns, nl := len(axes.Widths), len(axes.Spacings), len(axes.Lengths)
	selfVals := make([]float64, nw*nl)
	for iw, w := range axes.Widths {
		for il, l := range axes.Lengths {
			selfVals[iw*nl+il] = 2e-7 * l * (math.Log(2*l/w) + 0.5)
		}
	}
	mutVals := make([]float64, nw*nw*ns*nl)
	for i := 0; i < nw; i++ {
		for j := 0; j < nw; j++ {
			for si := 0; si < ns; si++ {
				for li := 0; li < nl; li++ {
					l1, l2 := selfVals[i*nl+li], selfVals[j*nl+li]
					k := 0.3 / float64(si+1)
					mutVals[((i*nw+j)*ns+si)*nl+li] = k * math.Sqrt(l1*l2)
				}
			}
		}
	}
	s := &Set{Config: Config{Name: "m6/synthetic"}, Axes: axes}
	var err error
	if s.Self, err = spline.NewGrid([][]float64{axes.Widths, axes.Lengths}, selfVals); err != nil {
		t.Fatal(err)
	}
	if s.Mutual, err = spline.NewGrid(
		[][]float64{axes.Widths, axes.Widths, axes.Spacings, axes.Lengths}, mutVals); err != nil {
		t.Fatal(err)
	}
	return s
}

// rebuildSelf re-derives the self spline after a test mutated Vals, so
// the spike detector sees an interpolant consistent with the data.
func rebuildSelf(t *testing.T, s *Set) {
	t.Helper()
	vals := s.Self.Vals
	var err error
	if s.Self, err = spline.NewGrid([][]float64{s.Axes.Widths, s.Axes.Lengths}, vals); err != nil {
		t.Fatal(err)
	}
}

func auditInvariants(vs []check.Violation) []string {
	var out []string
	for _, v := range vs {
		out = append(out, v.Invariant)
	}
	return out
}

func hasViolation(vs []check.Violation, invariantFrag, cellFrag string) bool {
	for _, v := range vs {
		if strings.Contains(v.Invariant, invariantFrag) && strings.Contains(v.Cell, cellFrag) {
			return true
		}
	}
	return false
}

func TestAuditCleanSet(t *testing.T) {
	s := syntheticSet(t)
	if vs := s.Audit(); len(vs) != 0 {
		t.Fatalf("clean set audit reported %d violations: %v", len(vs), auditInvariants(vs))
	}
}

func TestAuditCleanBuiltSet(t *testing.T) {
	set, err := Build(freeConfig(), Axes{
		Widths:   LogAxis(units.Um(1), units.Um(8), 3),
		Spacings: LogAxis(units.Um(1), units.Um(4), 3),
		Lengths:  LogAxis(units.Um(200), units.Um(3000), 4),
	})
	if err != nil {
		t.Fatal(err)
	}
	if vs := set.Audit(); len(vs) != 0 {
		t.Fatalf("real built set fails its own audit: %v", auditInvariants(vs))
	}
}

func TestAuditFlagsNonPositiveSelf(t *testing.T) {
	s := syntheticSet(t)
	nl := len(s.Axes.Lengths)
	s.Self.Vals[1*nl+0] = -1e-10
	rebuildSelf(t, s)
	vs := s.Audit()
	if !hasViolation(vs, "self inductance positive", "self[1,0]") {
		t.Errorf("negative self not flagged at its cell; got %v", auditInvariants(vs))
	}
}

func TestAuditFlagsNaNSelf(t *testing.T) {
	s := syntheticSet(t)
	nl := len(s.Axes.Lengths)
	s.Self.Vals[0*nl+2] = math.NaN()
	rebuildSelf(t, s)
	if vs := s.Audit(); !hasViolation(vs, "self inductance finite", "self[0,2]") {
		t.Errorf("NaN self not flagged; got %v", auditInvariants(vs))
	}
}

func TestAuditFlagsNonMonotoneSelf(t *testing.T) {
	s := syntheticSet(t)
	nl := len(s.Axes.Lengths)
	// Swap the last two lengths of width row 2: still positive and
	// finite, but decreasing in length.
	s.Self.Vals[2*nl+1], s.Self.Vals[2*nl+2] = s.Self.Vals[2*nl+2], s.Self.Vals[2*nl+1]
	rebuildSelf(t, s)
	if vs := s.Audit(); !hasViolation(vs, "monotone non-decreasing", "self[2,2]") {
		t.Errorf("non-monotone self not flagged; got %v", auditInvariants(vs))
	}
}

func TestAuditFlagsAsymmetricMutual(t *testing.T) {
	s := syntheticSet(t)
	nw, ns, nl := len(s.Axes.Widths), len(s.Axes.Spacings), len(s.Axes.Lengths)
	idx := ((0*nw+1)*ns+1)*nl + 1 // mutual[0,1,1,1], mirror left intact
	s.Mutual.Vals[idx] *= 1.25
	if vs := s.Audit(); !hasViolation(vs, "symmetric", "mutual[0,1,1,1]") {
		t.Errorf("asymmetric mutual not flagged; got %v", auditInvariants(vs))
	}
}

func TestAuditFlagsCouplingAboveOne(t *testing.T) {
	s := syntheticSet(t)
	nw, ns, nl := len(s.Axes.Widths), len(s.Axes.Spacings), len(s.Axes.Lengths)
	// Diagonal cell (w1 == w2): trivially symmetric, so the only new
	// violation is the coupling bound.
	i := 1
	idx := ((i*nw+i)*ns+0)*nl + 2
	s.Mutual.Vals[idx] = 1.5 * s.Self.Vals[i*nl+2]
	vs := s.Audit()
	if !hasViolation(vs, "mutual coupling k < 1", "mutual[1,1,0,2]") {
		t.Fatalf("k >= 1 not flagged; got %v", auditInvariants(vs))
	}
	for _, v := range vs {
		if strings.Contains(v.Invariant, "k < 1") {
			if !strings.Contains(v.Subject, "m6/synthetic") {
				t.Errorf("violation subject %q does not name the table", v.Subject)
			}
			if !strings.Contains(v.Detail, "= 1.5") {
				t.Errorf("violation detail %q does not carry the coupling value", v.Detail)
			}
		}
	}
}

func TestAuditFlagsSplineSpike(t *testing.T) {
	// A dense length axis so a single-knot excursion has neighbouring
	// intervals whose envelopes are narrow: the cubic reacts to the
	// spike by swinging outside those envelopes between the knots. The
	// point of this test is that the *interpolant* between knots is
	// checked too, not just the knot values.
	s := syntheticSetAxes(t, Axes{
		Widths:   []float64{units.Um(1), units.Um(2)},
		Spacings: []float64{units.Um(1), units.Um(2)},
		Lengths:  LogAxis(units.Um(100), units.Um(3200), 6),
	})
	nl := len(s.Axes.Lengths)
	s.Self.Vals[0*nl+3] *= 50
	rebuildSelf(t, s)
	vs := s.Audit()
	spike := false
	for _, v := range vs {
		if strings.Contains(v.Invariant, "spline") {
			spike = true
		}
	}
	if !spike {
		t.Errorf("mid-knot spline excursion not flagged; got %v", auditInvariants(vs))
	}
}

// Satellite regression: a cached table corrupted to k > 1 — with a
// perfectly valid checksum, because it is re-saved after the flip — is
// rejected by Strict at load with an error naming the file, the cell
// and the invariant, while Warn counts and proceeds.
func TestCorruptCachedTableStrictVsWarn(t *testing.T) {
	defer check.SetPolicy(check.Off)
	check.SetPolicy(check.Off)

	s := syntheticSet(t)
	nw, ns, nl := len(s.Axes.Widths), len(s.Axes.Spacings), len(s.Axes.Lengths)
	i := 2
	s.Mutual.Vals[((i*nw+i)*ns+1)*nl+0] = 2 * s.Self.Vals[i*nl+0]
	path := filepath.Join(t.TempDir(), "m6-synthetic.rlct")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}

	// The checksum is valid — a policy-off load accepts the file.
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("policy-off load rejected the file: %v", err)
	}

	check.SetPolicy(check.Strict)
	_, err := LoadFile(path)
	if err == nil {
		t.Fatal("strict load accepted a table with k >= 1")
	}
	if !errors.Is(err, check.ErrViolation) {
		t.Errorf("strict rejection %v does not unwrap to ErrViolation", err)
	}
	for _, frag := range []string{path, "mutual coupling k < 1", "mutual[2,2,1,0]", "m6/synthetic"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("strict rejection %q missing %q", err.Error(), frag)
		}
	}

	check.SetPolicy(check.Warn)
	before := check.Violations()
	stBefore := check.StageViolations(check.StageTableAudit)
	if _, err := LoadFile(path); err != nil {
		t.Fatalf("warn load failed: %v", err)
	}
	if check.Violations() <= before {
		t.Error("warn load did not advance check.violations")
	}
	if check.StageViolations(check.StageTableAudit) <= stBefore {
		t.Error("warn load did not advance the table_audit stage counter")
	}
}

// Build-path hook: a strict engine audits freshly built sets, and a
// clean build passes.
func TestBuildAuditHookStrictClean(t *testing.T) {
	defer check.SetPolicy(check.Off)
	check.SetPolicy(check.Strict)
	set, err := Build(freeConfig(), Axes{
		Widths:   LogAxis(units.Um(1), units.Um(6), 3),
		Spacings: LogAxis(units.Um(1), units.Um(3), 2),
		Lengths:  LogAxis(units.Um(200), units.Um(2000), 3),
	})
	if err != nil {
		t.Fatalf("strict policy rejected a clean build: %v", err)
	}
	if set == nil {
		t.Fatal("nil set")
	}
}

// auditMsg is one violation's label, as the audit reports it.
type auditMsg struct{ invariant, cell, detail string }

// TestAuditGoldenMessages pins every audit invariant's labels byte for
// byte: one corruption per case and the complete, ordered violation
// list it yields. The strings are the audit's output from before
// labels were built lazily, so moving the formatting into the
// violation branches provably changed no message.
func TestAuditGoldenMessages(t *testing.T) {
	const subject = `table "m6/synthetic"`
	cases := []struct {
		name    string
		corrupt func(t *testing.T) *Set
		want    []auditMsg
	}{
		{"self positive", func(t *testing.T) *Set {
			s := syntheticSet(t)
			s.Self.Vals[1*3+0] = -1e-10
			rebuildSelf(t, s)
			return s
		}, []auditMsg{
			{"self inductance positive", "self[1,0] (w=2e-06, l=9.999999999999999e-05)", "L = -1e-10"},
		}},
		{"self finite, spline finite", func(t *testing.T) *Set {
			s := syntheticSet(t)
			s.Self.Vals[0*3+2] = math.NaN()
			rebuildSelf(t, s)
			return s
		}, []auditMsg{
			{"self inductance finite", "self[0,2] (w=1e-06, l=0.0015999999999999999)", "L = NaN"},
			{"self spline finite between knots", "self spline (w=1e-06, l between 9.999999999999999e-05 and 0.00039999999999999996)", "eval = NaN"},
			{"self spline finite between knots", "self spline (w=2e-06, l between 9.999999999999999e-05 and 0.00039999999999999996)", "eval = NaN"},
			{"self spline finite between knots", "self spline (w=2e-06, l between 0.00039999999999999996 and 0.0015999999999999999)", "eval = NaN"},
			{"self spline finite between knots", "self spline (w=4e-06, l between 9.999999999999999e-05 and 0.00039999999999999996)", "eval = NaN"},
			{"self spline finite between knots", "self spline (w=4e-06, l between 0.00039999999999999996 and 0.0015999999999999999)", "eval = NaN"},
		}},
		{"self monotone", func(t *testing.T) *Set {
			s := syntheticSet(t)
			s.Self.Vals[2*3+1], s.Self.Vals[2*3+2] = s.Self.Vals[2*3+2], s.Self.Vals[2*3+1]
			rebuildSelf(t, s)
			return s
		}, []auditMsg{
			{"self inductance monotone non-decreasing in length", "self[2,2] (w=4e-06, l=0.0015999999999999999)",
				"L(l=0.0015999999999999999) = 4.638653893238429e-10 < L(l=0.00039999999999999996) = 2.2990757528537365e-09"},
			{"mutual coupling k < 1", "mutual[2,2,0,2] (w1=4e-06, w2=4e-06, s=1e-06, l=0.0015999999999999999)",
				"k = |M|/sqrt(L1*L2) = 1.487 (M=6.897227258561209e-10, L1=4.638653893238429e-10, L2=4.638653893238429e-10)"},
		}},
		{"spline spike, spline positive", func(t *testing.T) *Set {
			s := syntheticSetAxes(t, Axes{
				Widths:   []float64{units.Um(1), units.Um(2)},
				Spacings: []float64{units.Um(1), units.Um(2)},
				Lengths:  LogAxis(units.Um(100), units.Um(3200), 6),
			})
			s.Self.Vals[0*6+3] *= 50
			rebuildSelf(t, s)
			return s
		}, []auditMsg{
			{"self inductance monotone non-decreasing in length", "self[0,4] (w=1e-06, l=0.0015999999999999992)",
				"L(l=0.0015999999999999992) = 2.7426899484121e-09 < L(l=0.0007999999999999995) = 6.302207126582292e-08"},
			{"self spline free of spikes between knots", "self spline (w=1e-06, l between 9.999999999999999e-05 and 0.00019999999999999985)",
				"eval = 3.8738700465577845e-10 outside knot envelope [1.1596634733096072e-10, 2.5965858188431903e-10]"},
			{"self spline positive between knots", "self spline (w=1e-06, l between 0.00019999999999999985 and 0.0003999999999999997)",
				"eval = -1.2117117396814005e-09"},
			{"self spline positive between knots", "self spline (w=1e-06, l between 0.0015999999999999992 and 0.0031999999999999997)",
				"eval = -3.489459631312181e-08"},
		}},
		{"mutual symmetric", func(t *testing.T) *Set {
			s := syntheticSet(t)
			s.Mutual.Vals[((0*3+1)*2+1)*3+1] *= 1.25
			return s
		}, []auditMsg{
			{"mutual inductance symmetric in (w1, w2)", "mutual[0,1,1,1] (w1=1e-06, w2=2e-06, s=2e-06, l=0.00039999999999999996)",
				"M(w1,w2) = 1.0243874643342149e-10 but M(w2,w1) = 8.19509971467372e-11"},
		}},
		{"mutual k < 1", func(t *testing.T) *Set {
			s := syntheticSet(t)
			s.Mutual.Vals[((1*3+1)*2+0)*3+2] = 1.5 * s.Self.Vals[1*3+2]
			return s
		}, []auditMsg{
			{"mutual coupling k < 1", "mutual[1,1,0,2] (w1=2e-06, w2=2e-06, s=1e-06, l=0.0015999999999999999)",
				"k = |M|/sqrt(L1*L2) = 1.5 (M=3.781324275949379e-09, L1=2.520882850632919e-09, L2=2.520882850632919e-09)"},
		}},
		{"mutual finite", func(t *testing.T) *Set {
			s := syntheticSet(t)
			s.Mutual.Vals[((2*3+0)*2+1)*3+0] = math.NaN()
			return s
		}, []auditMsg{
			{"mutual inductance finite", "mutual[2,0,1,0] (w1=4e-06, w2=1e-06, s=2e-06, l=9.999999999999999e-05)", "M = NaN"},
		}},
		{"mutual non-negative", func(t *testing.T) *Set {
			s := syntheticSet(t)
			s.Mutual.Vals[((1*3+2)*2+0)*3+1] = -1e-12
			return s
		}, []auditMsg{
			{"mutual inductance non-negative", "mutual[1,2,0,1] (w1=2e-06, w2=4e-06, s=1e-06, l=0.00039999999999999996)", "M = -1e-12"},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			vs := tc.corrupt(t).Audit()
			if len(vs) != len(tc.want) {
				t.Fatalf("%d violations, want %d: %v", len(vs), len(tc.want), auditInvariants(vs))
			}
			for i, v := range vs {
				w := tc.want[i]
				if v.Stage != check.StageTableAudit || v.Invariant != w.invariant || v.Subject != subject ||
					v.Cell != w.cell || v.Detail != w.detail {
					t.Errorf("violation %d:\n got %s | %q | %q | %q | %q\nwant %s | %q | %q | %q | %q",
						i, v.Stage, v.Invariant, v.Subject, v.Cell, v.Detail,
						check.StageTableAudit, w.invariant, subject, w.cell, w.detail)
				}
			}
		})
	}
}

// A clean audit pays only for its comparisons and spline samples: it
// allocates the same small constant on the 2×2×3 tiny axes as on the
// 6×6×8 default axes, whose 1,818 checked cells (48 self, 42 spline
// probes, 1,728 mutual) would otherwise each format a label.
func TestAuditCleanAllocationsIndependentOfSize(t *testing.T) {
	tiny := syntheticSetAxes(t, tinyAxes())
	def := syntheticSetAxes(t, DefaultAxes())
	for _, s := range []*Set{tiny, def} {
		if vs := s.Audit(); len(vs) != 0 {
			t.Fatalf("synthetic set is not clean: %v", auditInvariants(vs))
		}
	}
	aTiny := testing.AllocsPerRun(20, func() { tiny.Audit() })
	aDef := testing.AllocsPerRun(20, func() { def.Audit() })
	if aTiny != aDef || aDef > 4 {
		t.Errorf("clean audit allocations: tiny axes %v, default axes %v; want equal and at most 4", aTiny, aDef)
	}
}

// BenchmarkAudit times the full post-load audit of a clean set built
// on the default axes.
func BenchmarkAudit(b *testing.B) {
	s, err := Build(freeConfig(), DefaultAxes())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if vs := s.Audit(); len(vs) != 0 {
			b.Fatal(auditInvariants(vs))
		}
	}
}
