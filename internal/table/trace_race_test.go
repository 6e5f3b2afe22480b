package table

import (
	"context"
	"fmt"
	"testing"

	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
	"clockrlc/internal/units"
)

// TestParallelBuildTraceParenting is the concurrency-correctness gate
// for the tracing layer (run under -race by `make race`/`make chaos`):
// a parallel BuildCtx at several worker counts must produce a trace
// that reconstructs with zero orphaned and zero unended spans, and
// with every per-cell span parented under the build span — cell spans
// are started on worker goroutines via StartCtx, so any accidental
// dependence on the observer's single-goroutine span stack would
// mis-parent them nondeterministically.
func TestParallelBuildTraceParenting(t *testing.T) {
	axes := Axes{
		Widths:   LogAxis(units.Um(1), units.Um(14), 3),
		Spacings: LogAxis(units.Um(0.5), units.Um(22), 3),
		Lengths:  LogAxis(units.Um(50), units.Um(8000), 4),
	}
	for _, workers := range []int{1, 2, 4, 8} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sink := &obs.MemorySink{}
			obs.Default().AddSink(sink)
			defer obs.Default().RemoveSink(sink)
			cfg := Config{
				Name:      fmt.Sprintf("trace-race-%d", workers),
				Thickness: units.Um(2),
				Rho:       units.RhoCopper,
				Shielding: geom.ShieldNone,
				Frequency: 5e9,
				Workers:   workers,
			}
			if _, err := BuildCtx(context.Background(), cfg, axes); err != nil {
				t.Fatal(err)
			}
			tr := obs.BuildTrace(sink.Events())
			if len(tr.Orphans) != 0 {
				for _, sp := range tr.Orphans {
					t.Errorf("orphaned span %d %q (parent %d never seen)", sp.ID, sp.Name, sp.Parent)
				}
			}
			if len(tr.Unended) != 0 {
				for _, sp := range tr.Unended {
					t.Errorf("unended span %d %q", sp.ID, sp.Name)
				}
			}
			if len(tr.Roots) != 1 {
				t.Fatalf("got %d roots, want exactly the build span", len(tr.Roots))
			}
			build := tr.Roots[0]
			if build.Name != "table.build" {
				t.Fatalf("root span = %q, want table.build", build.Name)
			}
			var cells int
			for _, sp := range tr.Spans {
				switch sp.Name {
				case "table.self_cell", "table.mutual_cell":
					cells++
					if sp.Parent != build.ID {
						t.Errorf("%s span %d parented under %d, want build span %d",
							sp.Name, sp.ID, sp.Parent, build.ID)
					}
					if _, ok := sp.Attrs["cell"]; !ok {
						t.Errorf("%s span %d missing cell attribute", sp.Name, sp.ID)
					}
				}
			}
			// Every sweep cell must have produced a span: the self sweep
			// covers widths×lengths, the mutual sweep unordered width
			// pairs × spacings × lengths.
			nw, ns, nl := len(axes.Widths), len(axes.Spacings), len(axes.Lengths)
			want := nw*nl + nw*(nw+1)/2*ns*nl
			if cells != want {
				t.Errorf("got %d cell spans, want %d", cells, want)
			}
			// The critical path of a build trace starts at the build span,
			// so its head duration is the build wall time by construction.
			path := tr.CriticalPath()
			if len(path) == 0 || path[0] != build {
				t.Errorf("critical path does not start at the build span")
			}
		})
	}
}
