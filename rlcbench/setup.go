package main

import (
	"context"
	"path/filepath"

	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
	"clockrlc/internal/table"
)

// inprocSetup builds an in-process workload's extractor. Untraced, it
// sets up reps times from empty caches and records setup_s. Traced, it
// sets up once with the tracer armed, reopens the filled cache once (a
// cache hit), and records the table metrics from those spans and the
// counters.
func inprocSetup(ctx context.Context, e *env, oc *outcome, tr *tracer, reps int, shs []geom.Shielding, opts ...core.Option) (*core.Extractor, error) {
	if !e.traced {
		return setupReps(ctx, e, oc, e.reps(reps), shs, opts...)
	}
	before := readCounters()
	tr.arm()
	sctx, sp := obs.StartCtx(ctx, "bench.setup")
	ext, cache, err := coldExtractor(sctx, filepath.Join(e.work, "cache"), shs, opts...)
	if err == nil {
		_, err = core.NewExtractorCtx(sctx, tech, freqFor(riseTimePs), table.DefaultAxes(), shs,
			append([]core.Option{core.WithTableCache(cache)}, opts...)...)
	}
	sp.End()
	tr.disarm()
	if err != nil {
		return nil, err
	}
	d := readCounters().since(before)
	t := obs.BuildTrace(tr.events())
	m := oc.metrics
	m["table.build_s"], m["table.build.parallel_eff"] = setupStats(t)
	m["table.solver_calls"] = float64(d["table.solver_calls"])
	m["table.cache_hits"] = float64(d["table.cache_hits"])
	m["table.cache_misses"] = float64(d["table.cache_misses"])
	m["table.cache.open_us"] = cacheOpenUs(t)
	return ext, nil
}
