package clocktree

import (
	"context"
	"testing"

	"clockrlc/internal/obs"
)

// TestTreeTraceIsOneForest: a tree analysis under a root span traces
// as one tree on the process observer, across packages. Each
// clocktree.stage parents the extractions (core.extract, each parenting
// its table.lookup) and the transient (sim.transient) it runs.
func TestTreeTraceIsOneForest(t *testing.T) {
	tree := testTree(t, 2) // builds the tables before the sink attaches
	mem := &obs.MemorySink{}
	obs.Default().AddSink(mem)
	ctx, root := obs.StartCtx(context.Background(), "run")
	_, err := tree.AnalyzeCtx(ctx, SimOptions{WithL: true}, nil)
	root.End()
	obs.Default().RemoveSink(mem)
	if err != nil {
		t.Fatal(err)
	}

	tr := obs.BuildTrace(mem.Events())
	if len(tr.Orphans) != 0 || len(tr.Unended) != 0 {
		t.Fatalf("%d orphaned and %d unended spans, want none", len(tr.Orphans), len(tr.Unended))
	}
	if len(tr.Roots) != 1 || tr.Roots[0].Name != "run" {
		t.Fatalf("%d roots, want the one run span", len(tr.Roots))
	}
	wantParent := map[string]string{
		"core.extract":  "clocktree.stage",
		"sim.transient": "clocktree.stage",
		"table.lookup":  "core.extract",
	}
	counts := map[string]int{}
	for _, sp := range tr.Spans {
		want, ok := wantParent[sp.Name]
		if !ok {
			continue
		}
		counts[sp.Name]++
		if p := tr.Spans[sp.Parent]; p == nil || p.Name != want {
			t.Errorf("%s span %d is not under a %s", sp.Name, sp.ID, want)
		}
	}
	for name := range wantParent {
		if counts[name] == 0 {
			t.Errorf("no %s span recorded", name)
		}
	}
}
