package sim

import (
	"context"
	"testing"

	"clockrlc/internal/netlist"
)

// BenchmarkTransientStage times one clock-tree stage transient — six
// 6-section ladders, 4,000 trapezoidal steps, every sample recorded:
// compile, stamping, two factorizations and the full step loop.
func BenchmarkTransientStage(b *testing.B) {
	for _, bc := range []struct {
		name  string
		withL bool
	}{{"RC", false}, {"RLC", true}} {
		b.Run(bc.name, func(b *testing.B) {
			nl := stageNetlist(b, bc.withL, 6)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := Transient(nl, stageStep, 4000*stageStep, stageSinks); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCrossingsStage times the same stage as the clock-tree
// analysis runs it since the transient stops early: the four sinks'
// first 50 % crossings, with the 4,000-step horizon only a cap.
func BenchmarkCrossingsStage(b *testing.B) {
	for _, bc := range []struct {
		name  string
		withL bool
	}{{"RC", false}, {"RLC", true}} {
		b.Run(bc.name, func(b *testing.B) {
			nl := stageNetlist(b, bc.withL, 6)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := CrossingsCtx(context.Background(), nl, stageStep, 4000*stageStep, stageSinks, 0.5, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkCrossingsStageRerun times a stage once its circuit is
// compiled, as the clock-tree analysis reruns one circuit for every
// stage of a topology: the stage of BenchmarkCrossingsStage, its four
// sink loads changed on every iteration.
func BenchmarkCrossingsStageRerun(b *testing.B) {
	for _, bc := range []struct {
		name  string
		withL bool
	}{{"RC", false}, {"RLC", true}} {
		b.Run(bc.name, func(b *testing.B) {
			nl := stageNetlist(b, bc.withL, 6)
			c, err := Compile(nl)
			if err != nil {
				b.Fatal(err)
			}
			var sinkCaps []int
			for i, e := range nl.Capacitors {
				if e.B == netlist.Ground && len(e.Name) == 3 && e.Name[:2] == "cs" {
					sinkCaps = append(sinkCaps, i)
				}
			}
			if len(sinkCaps) != len(stageSinks) {
				b.Fatalf("found %d sink loads", len(sinkCaps))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for k, idx := range sinkCaps {
					nl.Capacitors[idx].C = 18e-15 * (1 + 0.1*float64((i+k)%4))
				}
				if _, err := c.CrossingsCtx(context.Background(), stageStep, 4000*stageStep, stageSinks, 0.5, true); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
