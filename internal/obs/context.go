package obs

import "context"

// Context propagation: the one way to parent spans. StartCtx reads
// its parent from the context — each goroutine carries its own
// lineage, so when work fans out (table.BuildCtx's worker pool, the
// batch extraction pool, every *Ctx entry point) reconstruction of
// the trace tree is exact at any worker count. The disarmed path
// (observer disabled) is a single atomic load returning the context
// unchanged: no allocation, no context wrapping, nothing for the hot
// paths to pay.

// spanCtxKey keys the current span in a context.Context.
type spanCtxKey struct{}

// ContextWithSpan returns ctx carrying sp as the current span, the
// parent of any StartCtx span started under the returned context.
// A zero span returns ctx unchanged.
func ContextWithSpan(ctx context.Context, sp Span) context.Context {
	if sp.d == nil {
		return ctx
	}
	if ctx == nil {
		ctx = context.Background()
	}
	return context.WithValue(ctx, spanCtxKey{}, sp)
}

// SpanFromContext returns the span carried by ctx (the zero, disabled
// span when none is attached).
func SpanFromContext(ctx context.Context) Span {
	if ctx == nil {
		return Span{}
	}
	sp, _ := ctx.Value(spanCtxKey{}).(Span)
	return sp
}

// StartCtx begins a span on the default observer, parented to the span
// carried by ctx (a root span when ctx carries none), and returns a
// derived context carrying the new span, for passing to child
// operations. It is correct from any number of goroutines. With the
// observer disabled it returns (ctx, Span{}) after one atomic load.
func StartCtx(ctx context.Context, name string) (context.Context, Span) {
	return defaultObserver.startCtx(ctx, name)
}

func (o *Observer) startCtx(ctx context.Context, name string) (context.Context, Span) {
	if !o.enabled.Load() {
		return ctx, Span{}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var parent uint64
	if p := SpanFromContext(ctx); p.d != nil {
		parent = p.d.id
	}
	d := &spanData{o: o, id: o.nextID.Add(1), parent: parent, name: name, start: o.clock()}
	o.mu.Lock()
	sinks := o.sinks
	o.mu.Unlock()
	emit(sinks, &Event{Type: EventSpanStart, Name: name, Span: d.id, Parent: d.parent, Time: d.start})
	sp := Span{d: d}
	return context.WithValue(ctx, spanCtxKey{}, sp), sp
}
