package sim

import "testing"

// BenchmarkTransientStage times one clock-tree stage transient — six
// 6-section ladders, 4,000 trapezoidal steps — as the tree analysis
// runs it: assembly, two factorizations and the step loop.
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
