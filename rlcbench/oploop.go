package main

import (
	"context"
	"time"

	"clockrlc/internal/obs"
)

// opLoop runs an operation back to back, one caller in a closed loop,
// until the window has passed and at least one operation (two when
// traced) has run. Every latency is calibrated for the host's speed
// (calib.go): a short operation is timed between two probes; a long
// single-threaded one (sampled) is scaled by the mean of the probes a
// sampler takes every 5 ms on the other core while it runs, because
// probes right after a long operation meet its garbage collection. In a
// traced run every other operation is traced, wrapped in a root span of
// the given name, so traced and untraced operations interleave and
// their difference is the tracing overhead.
type opLoop struct {
	root    string
	window  time.Duration
	sampled bool
	traced  bool
	tr      *tracer
	// Calibrated latencies of untraced and traced operations, and the
	// wall latencies of the untraced ones.
	untraced, tracedOp, wall []time.Duration
	failures                 int
	// elapsed is the loop's wall time, busy its calibrated operation
	// time.
	elapsed, busy time.Duration
}

func (l *opLoop) run(ctx context.Context, op func(ctx context.Context, i int) error) error {
	minOps := 1
	if l.traced {
		minOps = 2
	}
	var smp *sampler
	if l.sampled {
		smp = startSampler(5 * time.Millisecond)
		defer smp.halt()
	}
	var raw []time.Duration
	var spans [][2]time.Time // of every operation, in order
	start := time.Now()
	k := probe()
	for i := 0; time.Since(start) < l.window || i < minOps; i++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		traceThis := l.traced && i%2 == 1
		opCtx := ctx
		var sp obs.Span
		if traceThis {
			l.tr.arm()
			opCtx, sp = obs.StartCtx(ctx, l.root)
		}
		t0 := time.Now()
		err := op(opCtx, i)
		t1 := time.Now()
		d := t1.Sub(t0)
		spans = append(spans, [2]time.Time{t0, t1})
		if traceThis {
			sp.End()
			l.tr.disarm()
		}
		cal := d
		if !l.sampled {
			k1 := probe()
			cal, k = calibrate(d, k, k1), k1
		}
		if traceThis {
			l.tracedOp = append(l.tracedOp, cal)
		} else {
			l.untraced, raw = append(l.untraced, cal), append(raw, d)
		}
		if err != nil {
			l.failures++
		}
	}
	l.elapsed = time.Since(start)
	l.wall = raw
	if smp != nil {
		smp.halt()
		u, tr := 0, 0
		for i, sp := range spans {
			f := smp.factor(sp[0], sp[1])
			if l.traced && i%2 == 1 {
				l.tracedOp[tr] = time.Duration(float64(l.tracedOp[tr]) * f)
				tr++
			} else {
				l.untraced[u] = time.Duration(float64(l.untraced[u]) * f)
				u++
			}
		}
	}
	for _, d := range append(append([]time.Duration(nil), l.untraced...), l.tracedOp...) {
		l.busy += d
	}
	return nil
}

func (l *opLoop) ops() int { return len(l.untraced) + len(l.tracedOp) }

// overhead is the traced operations' median latency over the untraced
// ones', minus one.
func (l *opLoop) overhead() float64 {
	if len(l.tracedOp) == 0 || len(l.untraced) == 0 {
		return 0
	}
	return durationsMedian(l.tracedOp)/durationsMedian(l.untraced) - 1
}

// report records the end-to-end operation metrics: the calibrated
// median and tail latency, and work per calibrated second.
func (l *opLoop) report(oc *outcome, workPerOp float64, what string) {
	lat := summarize(l.untraced)
	oc.metrics["op_p50_ms"] = lat.p50
	oc.metrics["op_tail_ms"] = lat.tail
	oc.metrics["work_per_s"] = workPerOp * float64(l.ops()) / l.busy.Seconds()
	oc.notef("op = %s; %d in %.1fs; tail = p%g of %d; wall-clock p50 %.4g ms (calibrated %.4g ms)",
		what, l.ops(), l.elapsed.Seconds(), lat.tailPct, lat.n, summarize(l.wall).p50, lat.p50)
}
