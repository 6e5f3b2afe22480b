package obs

import (
	"context"
	"sync"
	"testing"
)

func TestStartCtxParenting(t *testing.T) {
	sink := &MemorySink{}
	o := newObserver(sink)
	ctx, root := o.startCtx(context.Background(), "root")
	cctx, child := o.startCtx(ctx, "child")
	_, grand := o.startCtx(cctx, "grandchild")
	grand.End()
	child.End()
	root.End()

	evs := sink.Events()
	byName := map[string]*Event{}
	for i := range evs {
		if evs[i].Type == EventSpanStart {
			byName[evs[i].Name] = &evs[i]
		}
	}
	if byName["root"].Parent != 0 {
		t.Errorf("root parent = %d, want 0", byName["root"].Parent)
	}
	if byName["child"].Parent != byName["root"].Span {
		t.Errorf("child parent = %d, want root %d", byName["child"].Parent, byName["root"].Span)
	}
	if byName["grandchild"].Parent != byName["child"].Span {
		t.Errorf("grandchild parent = %d, want child %d", byName["grandchild"].Parent, byName["child"].Span)
	}
	// The returned context carries the new span.
	if got := SpanFromContext(cctx); got.d != child.d {
		t.Error("derived context does not carry the started span")
	}
}

func TestStartCtxDisarmedReturnsContextUnchanged(t *testing.T) {
	o := newObserver() // no sinks: disabled
	ctx := context.Background()
	got, sp := o.startCtx(ctx, "hot")
	if got != ctx {
		t.Error("disarmed StartCtx wrapped the context")
	}
	if sp.Active() {
		t.Error("disarmed StartCtx returned an active span")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		_, sp := o.startCtx(ctx, "hot")
		sp.End()
	})
	if allocs != 0 {
		t.Errorf("disarmed StartCtx allocates %.1f objects/op, want 0", allocs)
	}
}

func TestContextWithSpanZeroAndNil(t *testing.T) {
	ctx := context.Background()
	if got := ContextWithSpan(ctx, Span{}); got != ctx {
		t.Error("zero span wrapped the context")
	}
	if sp := SpanFromContext(nil); sp.Active() {
		t.Error("nil context returned an active span")
	}
	if sp := SpanFromContext(context.Background()); sp.Active() {
		t.Error("bare context returned an active span")
	}
}

// TestStartCtxCrossGoroutine is the core concurrency-correctness
// property: spans started via StartCtx from many goroutines all parent
// under the span their context carries, never under each other.
func TestStartCtxCrossGoroutine(t *testing.T) {
	sink := &MemorySink{}
	o := newObserver(sink)
	ctx, root := o.startCtx(context.Background(), "build")

	const workers, perWorker = 8, 50
	var cwg sync.WaitGroup
	for w := 0; w < workers; w++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for i := 0; i < perWorker; i++ {
				_, sp := o.startCtx(ctx, "cell")
				sp.End()
			}
		}()
	}
	cwg.Wait()
	root.End()

	tr := BuildTrace(sink.Events())
	if len(tr.Orphans) != 0 || len(tr.Unended) != 0 {
		t.Fatalf("%d orphans, %d unended; want 0, 0", len(tr.Orphans), len(tr.Unended))
	}
	rootID := tr.Roots[0].ID
	cells := 0
	for _, sp := range tr.Spans {
		if sp.Name == "cell" {
			cells++
			if sp.Parent != rootID {
				t.Fatalf("cell span %d parented under %d, want build root %d", sp.ID, sp.Parent, rootID)
			}
		}
	}
	if cells != workers*perWorker {
		t.Errorf("got %d cell spans, want %d", cells, workers*perWorker)
	}
}
