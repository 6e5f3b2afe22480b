package sim

import (
	"context"
	"testing"
)

// BenchmarkTransientStage times one clock-tree stage transient — six
// 6-section ladders, 4,000 trapezoidal steps, every sample recorded:
// assembly, two factorizations and the full step loop.
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
