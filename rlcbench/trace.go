package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"clockrlc/internal/obs"
)

// tracer records the program's spans (and the benchmark's own) in
// memory while armed. Arming attaches a MemorySink to the process-wide
// observer every instrumented package traces to.
type tracer struct {
	sink  *obs.MemorySink
	armed bool
}

func (t *tracer) arm() {
	if t.sink == nil {
		t.sink = &obs.MemorySink{}
	}
	if !t.armed {
		obs.Default().AddSink(t.sink)
		t.armed = true
	}
}

func (t *tracer) disarm() {
	if t.armed {
		obs.Default().RemoveSink(t.sink)
		t.armed = false
	}
}

func (t *tracer) events() []obs.Event {
	if t.sink == nil {
		return nil
	}
	return t.sink.Events()
}

// writeTrace writes events as a JSONL trace (the -trace format, which
// cmd/obsreport reads) to dir/name.jsonl.
func writeTrace(dir, name string, events []obs.Event) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, name+".jsonl")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	w := bufio.NewWriter(f)
	sink := obs.NewJSONLSink(w)
	for i := range events {
		sink.Emit(&events[i])
	}
	sink.Emit(&obs.Event{Type: obs.EventMetrics, Time: time.Now(), Snap: obs.DefaultRegistry().Snapshot()})
	err = sink.Flush()
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return "", fmt.Errorf("writing trace %s: %w", path, err)
	}
	return path, nil
}

// readTraceFile reads a JSONL trace with the reader cmd/obsreport uses.
func readTraceFile(path string) ([]obs.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return obs.ReadTrace(f)
}

// breakdown is the self time of every span name found under the roots
// of one name (the benchmark's span around each operation), plus the
// roots' own wall time.
type breakdown struct {
	roots    int
	rootWall time.Duration
	self     map[string]time.Duration
	total    map[string]time.Duration
	// lookupSegs sums the "batch" attribute of table.lookup spans (a scalar
	// lookup span without it counts one segment).
	lookupSegs int
	// dims are the MNA dimensions of the sim.transient spans.
	dims []float64
}

func analyze(t *obs.Trace, root string) breakdown {
	b := breakdown{self: map[string]time.Duration{}, total: map[string]time.Duration{}}
	var walk func(sp *obs.TraceSpan)
	walk = func(sp *obs.TraceSpan) {
		b.self[sp.Name] += sp.SelfTime()
		b.total[sp.Name] += sp.Dur
		switch sp.Name {
		case "table.lookup":
			if n, ok := numAttr(sp.Attrs, "batch"); ok {
				b.lookupSegs += int(n)
			} else {
				b.lookupSegs++
			}
		case "sim.transient":
			if d, ok := numAttr(sp.Attrs, "dim"); ok {
				b.dims = append(b.dims, d)
			}
		}
		for _, c := range sp.Children {
			walk(c)
		}
	}
	for _, sp := range t.Spans {
		if sp.Name != root || !sp.Ended {
			continue
		}
		b.roots++
		b.rootWall += sp.Dur
		walk(sp)
	}
	return b
}

// share is the self time of the named spans as a percentage of the
// roots' wall time.
func (b breakdown) share(names ...string) float64 {
	if b.rootWall <= 0 {
		return 0
	}
	var d time.Duration
	for _, n := range names {
		d += b.self[n]
	}
	return 100 * float64(d) / float64(b.rootWall)
}

// unattributed is the roots' own self time over their wall time: the
// part of each operation no layer span explains.
func (b breakdown) unattributed(root string) float64 {
	return b.share(root) / 100
}

// perRoot is the named spans' self time per root, in seconds.
func (b breakdown) perRoot(names ...string) float64 {
	if b.roots == 0 {
		return 0
	}
	var d time.Duration
	for _, n := range names {
		d += b.self[n]
	}
	return d.Seconds() / float64(b.roots)
}

// numAttr reads a numeric span attribute, whether it was recorded in
// memory (an int) or decoded from a JSONL trace (a float64).
func numAttr(attrs map[string]any, key string) (float64, bool) {
	switch v := attrs[key].(type) {
	case int:
		return float64(v), true
	case int64:
		return float64(v), true
	case float64:
		return v, true
	}
	return 0, false
}

// setupStats reads the table-build metrics from the spans of one set-up:
// total build wall time, and the parallel efficiency of the builds
// (cell-span time over build wall time × workers).
func setupStats(t *obs.Trace) (buildS, parallelEff float64) {
	var wallWorkers, cells float64
	for _, sp := range t.Spans {
		switch sp.Name {
		case "table.build":
			buildS += sp.Dur.Seconds()
			w, ok := numAttr(sp.Attrs, "workers")
			if !ok {
				w = 1
			}
			wallWorkers += sp.Dur.Seconds() * w
		case "table.self_cell", "table.mutual_cell":
			cells += sp.Dur.Seconds()
		}
	}
	if wallWorkers > 0 {
		parallelEff = cells / wallWorkers
	}
	return buildS, parallelEff
}

// cacheOpenUs is the median duration of table.cache spans that were
// hits: opening (mapping) a cached set.
func cacheOpenUs(t *obs.Trace) float64 {
	var ds []time.Duration
	for _, sp := range t.Spans {
		if sp.Name == "table.cache" && sp.Attrs["outcome"] == "hit" {
			ds = append(ds, sp.Dur)
		}
	}
	if len(ds) == 0 {
		return 0
	}
	return durationsMedian(ds) * 1e6
}

// counters snapshots the program's counters the per-layer metrics are
// deltas of.
type counters map[string]int64

var counterNames = []string{
	"table.solver_calls", "table.cache_hits", "table.cache_misses", "table.lookup_clamped",
	"core.segments_extracted", "sim.transients", "sim.steps", "sim.factorizations",
	"clocktree.stages", "clocktree.stages_deduped", "clocktree.leaves",
}

func readCounters() counters {
	c := counters{}
	for _, n := range counterNames {
		c[n] = obs.GetCounter(n).Value()
	}
	return c
}

func (c counters) since(before counters) counters {
	d := counters{}
	for n, v := range c {
		d[n] = v - before[n]
	}
	return d
}

// procSample is the process's CPU time and GC state at one instant.
type procSample struct {
	at      time.Time
	cpu     time.Duration
	numGC   uint32
	pauseNs uint64
}

func sampleProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{at: time.Now(), cpu: selfCPU(), numGC: ms.NumGC, pauseNs: ms.PauseTotalNs}
}

func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// setProcMetrics fills the process metrics of a traced window of ops
// operations.
func setProcMetrics(m map[string]float64, from, to procSample, ops int) {
	if ops <= 0 {
		return
	}
	m["cpu_ms_per_op"] = float64(to.cpu-from.cpu) / float64(time.Millisecond) / float64(ops)
	m["go.gc_cycles_per_op"] = float64(to.numGC-from.numGC) / float64(ops)
	if wall := to.at.Sub(from.at); wall > 0 {
		m["go.gc_pause_pct"] = 100 * float64(to.pauseNs-from.pauseNs) / float64(wall.Nanoseconds())
	}
}
