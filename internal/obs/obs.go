// Package obs is the extraction pipeline's observability layer:
// span-style tracing with hierarchical timing, typed process-wide
// metrics (counters, gauges, histograms) and pluggable event sinks.
// It is dependency-free (stdlib only) and designed so that the
// default, unobserved configuration costs nothing measurable on the
// hot paths it instruments:
//
//   - starting a span on an Observer with no sinks returns a zero
//     Span value without locking or allocating;
//   - counters are single atomic adds, created once at package init
//     of the instrumented package and shared process-wide.
//
// Tracing model: an Observer is a tracing scope. StartCtx begins a
// span parented to the span its context carries and returns a derived
// context carrying the new span (see context.go), so extract → table
// lookup → cascade nest by passing the context down, from any number
// of goroutines. Every span start/end is forwarded to the Observer's
// sinks as an Event.
//
// Metrics model: counters/gauges/histograms live in a Registry
// (package-level helpers use a process-wide default, like expvar).
// Snapshot reduces a registry to a serialisable value that can be
// dumped as JSON, Prometheus text, or published through expvar.
package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Observer is a tracing scope: spans started on it are timed and
// forwarded to its sinks. The zero value and nil are valid, disabled
// observers. An Observer with no sinks is disabled and StartCtx is
// allocation-free.
type Observer struct {
	enabled atomic.Bool
	nextID  atomic.Uint64

	mu    sync.Mutex
	sinks []Sink
	now   func() time.Time
}

// New returns an Observer forwarding to the given sinks (none ⇒
// disabled until AddSink).
func New(sinks ...Sink) *Observer {
	o := &Observer{now: time.Now}
	for _, s := range sinks {
		o.AddSink(s)
	}
	return o
}

var defaultObserver = New()

// Default returns the process-wide observer. Library code that is not
// handed an explicit Observer (e.g. via core's WithObserver option)
// traces here; it stays disabled until a sink is attached, typically
// by a CLI's -trace flag.
func Default() *Observer { return defaultObserver }

// AddSink attaches a sink and enables the observer.
func (o *Observer) AddSink(s Sink) {
	if s == nil {
		return
	}
	o.mu.Lock()
	o.sinks = append(o.sinks, s)
	if o.now == nil {
		o.now = time.Now
	}
	o.mu.Unlock()
	o.enabled.Store(true)
}

// RemoveSink detaches a previously added sink; the observer is
// disabled again when no sinks remain.
func (o *Observer) RemoveSink(s Sink) {
	o.mu.Lock()
	kept := o.sinks[:0]
	for _, have := range o.sinks {
		if have != s {
			kept = append(kept, have)
		}
	}
	o.sinks = kept
	if len(kept) == 0 {
		o.enabled.Store(false)
	}
	o.mu.Unlock()
}

// Enabled reports whether spans are currently recorded.
func (o *Observer) Enabled() bool { return o != nil && o.enabled.Load() }

func (o *Observer) clock() time.Time {
	if o.now != nil {
		return o.now()
	}
	return time.Now()
}

// Span is one timed operation. The zero value is a valid, disabled
// span whose methods are no-ops, so instrumented code never needs to
// branch on whether tracing is on.
type Span struct{ d *spanData }

type spanData struct {
	o      *Observer
	id     uint64
	parent uint64
	name   string
	start  time.Time
	done   atomic.Bool

	mu    sync.Mutex
	attrs map[string]any
}

// SetAttr attaches a key/value to the span; it is reported with the
// span's end event. Values should be JSON-marshalable.
func (s Span) SetAttr(key string, v any) {
	if s.d == nil {
		return
	}
	s.d.mu.Lock()
	if s.d.attrs == nil {
		s.d.attrs = make(map[string]any, 4)
	}
	s.d.attrs[key] = v
	s.d.mu.Unlock()
}

// Active reports whether the span is recording.
func (s Span) Active() bool { return s.d != nil }

// End finishes the span, emitting its duration and attributes.
// Ending a zero span or ending twice is a no-op.
func (s Span) End() {
	d := s.d
	if d == nil || !d.done.CompareAndSwap(false, true) {
		return
	}
	o := d.o
	end := o.clock()
	o.mu.Lock()
	sinks := o.sinks
	o.mu.Unlock()
	d.mu.Lock()
	attrs := d.attrs
	d.mu.Unlock()
	emit(sinks, &Event{
		Type: EventSpanEnd, Name: d.name, Span: d.id, Parent: d.parent,
		Time: end, Dur: end.Sub(d.start), Attrs: attrs,
	})
}

func emit(sinks []Sink, e *Event) {
	for _, s := range sinks {
		s.Emit(e)
	}
}
