package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync/atomic"
	"time"

	"clockrlc/internal/check"
	"clockrlc/internal/core"
	"clockrlc/internal/geom"
	"clockrlc/internal/obs"
	"clockrlc/internal/serve"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

const (
	// serveSegs segments per request, drawn from a pool of servePool
	// geometries, so repeats inside a request exercise the lookup dedup.
	serveSegs = 64
	servePool = 64
	// serveBodies distinct request bodies are marshalled before timing
	// and cycled; enough that the sequence of table keys, and so the
	// registry's miss rate, varies little from seed to seed.
	serveBodies = 1024
	// serveRate is the traced run's open-loop load in requests per
	// second: about half of the daemon's capacity on a 2-core host with
	// the load generator beside it.
	serveRate = 300
)

// serveRiseTimesPs × two shieldings make six table keys, more than the
// daemon's four registry slots (-max-sets 4), so the working set is
// larger than the registry and requests also map evicted sets back in.
var serveRiseTimesPs = []float64{40, 50, 70}

func shieldingName(sh geom.Shielding) string {
	if sh == geom.ShieldNone {
		return "coplanar"
	}
	return sh.String()
}

func segmentRequest(s core.Segment) serve.SegmentRequest {
	return serve.SegmentRequest{
		LengthUm:      units.ToUm(s.Length),
		SignalWidthUm: units.ToUm(s.SignalWidth),
		GroundWidthUm: units.ToUm(s.GroundWidth),
		SpacingUm:     units.ToUm(s.Spacing),
		Shielding:     shieldingName(s.Shielding),
	}
}

// serveBodiesFor draws the request bodies: each carries serveSegs
// segments from a seeded pool of servePool geometries (both shieldings)
// at one of the three rise times.
func serveBodiesFor(r *rand.Rand) [][]byte {
	pool := make([]serve.SegmentRequest, servePool)
	for i := range pool {
		pool[i] = segmentRequest(randomSegment(r))
	}
	bodies := make([][]byte, serveBodies)
	for i := range bodies {
		req := serve.BatchRequest{RiseTimePs: serveRiseTimesPs[r.IntN(len(serveRiseTimesPs))]}
		for j := 0; j < serveSegs; j++ {
			req.Segments = append(req.Segments, pool[r.IntN(servePool)])
		}
		b, err := json.Marshal(req)
		if err != nil {
			panic(err) // a BatchRequest always marshals
		}
		bodies[i] = b
	}
	return bodies
}

// warmKeys sends one single-segment request per table key and fails
// unless each succeeds: the daemon is then ready for every request.
func warmKeys(c *http.Client, url string) error {
	for _, sh := range bothShieldings {
		for _, tr := range serveRiseTimesPs {
			seg := core.Segment{Length: units.Um(1000), SignalWidth: units.Um(2), GroundWidth: units.Um(2), Spacing: units.Um(2), Shielding: sh}
			body, err := json.Marshal(serve.BatchRequest{RiseTimePs: tr, Segments: []serve.SegmentRequest{segmentRequest(seg)}})
			if err != nil {
				return err
			}
			status, resp, err := post(c, url+"/v1/batch", body)
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("warming %v at %g ps: status %d: %s", sh, tr, status, resp)
			}
		}
	}
	return nil
}

// target is what the load is sent to: an rlcxd subprocess in a run, an
// in-process httptest server in the harness tests.
type target interface {
	// start brings up a fresh server over an empty cache directory and
	// returns its base URL; traced asks for its JSONL trace at tracePath.
	start(ctx context.Context, cacheDir, tracePath string) (string, error)
	// pid is the server's process id (0: this process).
	pid() int
	// stop shuts the current server down.
	stop() error
}

type rlcxdTarget struct {
	bin, logDir string
	d           *daemon
	n           int
}

func (t *rlcxdTarget) start(ctx context.Context, cacheDir, tracePath string) (string, error) {
	var extra []string
	if tracePath != "" {
		extra = []string{"-trace", tracePath}
	}
	t.n++
	d, err := startDaemon(ctx, t.bin, cacheDir, filepath.Join(t.logDir, fmt.Sprintf("rlcxd-%d.log", t.n)), extra...)
	if err != nil {
		return "", err
	}
	t.d = d
	return d.url, nil
}

func (t *rlcxdTarget) pid() int { return t.d.pid() }

func (t *rlcxdTarget) stop() error {
	if t.d == nil {
		return nil
	}
	d := t.d
	t.d = nil
	return d.stop()
}

// serveRun is the state of one serve run.
type serveRun struct {
	e        *env
	tgt      target
	client   *http.Client
	url      string
	bodies   [][]byte
	expected [][]byte
	local    *serve.Server
	mismatch atomic.Int64
	errs     atomic.Int64
	requests int
}

func runServeWorkload(ctx context.Context, e *env) (*outcome, error) {
	tgt := &rlcxdTarget{bin: e.rlcxd, logDir: e.work}
	return runServe(ctx, e, tgt)
}

// runServe drives the daemon from this one process: back to back on one
// connection when untraced; traced, with open-loop Poisson load over at
// most nproc connections and an in-process anatomy of its requests.
func runServe(ctx context.Context, e *env, tgt target) (oc *outcome, err error) {
	oc = newOutcome()
	// rlcxd runs under its -check default, warn, which audits every
	// table set it opens; the in-process reference and anatomy do too.
	defer check.SetPolicy(check.Active().Policy())
	check.SetPolicy(check.Warn)
	s := &serveRun{e: e, tgt: tgt, client: newClient(e.nproc), bodies: serveBodiesFor(newRand(e.seed))}
	defer func() {
		if serr := tgt.stop(); serr != nil && err == nil {
			err = serr
		}
	}()
	defer s.client.CloseIdleConnections()

	// Set-up: from exec until one request per table key has succeeded.
	reps := e.reps(3)
	daemonTrace := ""
	if e.traced {
		reps = 1
		daemonTrace = filepath.Join(e.traceDir, "serve.rlcxd.jsonl")
		mkdirAll(e.traceDir)
	}
	var walls, cals []time.Duration
	var cacheDir string
	for i := 0; i < reps; i++ {
		if err := tgt.stop(); err != nil {
			return nil, err
		}
		cacheDir = filepath.Join(e.work, fmt.Sprintf("daemon-%d", i))
		mkdirAll(cacheDir)
		wall, cal, err := timed(func() error {
			url, err := tgt.start(ctx, cacheDir, daemonTrace)
			if err != nil {
				return err
			}
			s.url = url
			return warmKeys(s.client, url)
		})
		if err != nil {
			return nil, err
		}
		walls, cals = append(walls, wall), append(cals, cal)
	}
	oc.metrics["setup_s"] = durationsMedian(cals)
	oc.notef("setup_s: median of %d daemon starts, exec until one request per table key succeeded; wall-clock median %.4g s",
		reps, durationsMedian(walls))

	// The expected response of every body, from the same service
	// in-process over the same cache.
	cache, err := table.NewCache(cacheDir)
	if err != nil {
		return nil, err
	}
	s.local, err = serve.New(serve.Config{Tech: tech, Cache: cache, MaxSets: 4, DefaultCheck: check.Warn})
	if err != nil {
		return nil, err
	}
	defer s.local.Close()
	for i, b := range s.bodies {
		rec := httptest.NewRecorder()
		s.local.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(b)))
		if rec.Code != http.StatusOK {
			return nil, fmt.Errorf("in-process reference for body %d: status %d: %s", i, rec.Code, rec.Body.Bytes())
		}
		s.expected = append(s.expected, rec.Body.Bytes())
	}

	r := newRand(e.seed ^ 0x5e4e)
	if e.traced {
		return oc, s.traced(ctx, oc, r)
	}

	// One connection, requests back to back: the daemon's service
	// latency, with no queue in front of it.
	loop := &opLoop{window: e.seconds}
	err = loop.run(ctx, func(_ context.Context, i int) error {
		s.requests++
		if !s.send(i % len(s.bodies)) {
			return errRequestFailed
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	loop.report(oc, 1, fmt.Sprintf("one %d-segment request on one connection", serveSegs))
	oc.notef("work_per_s = requests answered per second on one connection")
	rss, err := peakRSSMB(tgt.pid())
	if err != nil {
		return nil, err
	}
	oc.metrics["peak_rss_mb"] = rss
	s.account(oc)

	ext, err := core.NewExtractorCtx(ctx, tech, freqFor(riseTimePs), table.DefaultAxes(), bothShieldings, core.WithTableCache(cache))
	if err != nil {
		return nil, err
	}
	probes := probeSet(bothShieldings)
	oc.metrics["loopl_err_pct_max"], err = loopLErrPctMax(ctx, ext, probes)
	if err != nil {
		return nil, fmt.Errorf("accuracy probe: %w", err)
	}
	oc.notef("loopl_err_pct_max over %d fixed probe geometries at %d ps", len(probes), riseTimePs)
	return oc, nil
}

// send posts body bi and checks the response against the in-process
// reference.
func (s *serveRun) send(bi int) bool {
	status, body, err := post(s.client, s.url+"/v1/batch", s.bodies[bi])
	switch {
	case err != nil || status != http.StatusOK:
		s.errs.Add(1)
		return false
	case !bytes.Equal(body, s.expected[bi]):
		s.mismatch.Add(1)
		return false
	}
	return true
}

// phase offers Poisson load at serveRate for dur, waits for every
// answer, and samples the host's speed alongside; multiply the phase's
// latencies by the returned factor to calibrate them.
func (s *serveRun) phase(r *rand.Rand, dur time.Duration) (phaseStats, float64) {
	sched := poissonSchedule(r, serveRate, dur)
	s.requests += len(sched)
	smp := startSampler(50 * time.Millisecond)
	from := time.Now()
	rs := openLoop(newRealClock(), sched, s.e.nproc, func(k int) bool {
		return s.send(k % len(s.bodies))
	})
	to := time.Now()
	smp.halt()
	return reducePhase(rs, dur), smp.factor(from, to)
}

// errRequestFailed marks a request whose response was an error or
// differed from the reference (counted in serveRun).
var errRequestFailed = errors.New("request failed")

// account adds the run's requests and failures to the outcome.
func (s *serveRun) account(oc *outcome) {
	oc.attempted += int64(s.requests)
	errs, mism := s.errs.Load(), s.mismatch.Load()
	oc.failed += errs + mism
	if errs > 0 {
		oc.notef("CHECK FAILED: %d of %d requests failed (non-2xx or transport error)", errs, s.requests)
	}
	if mism > 0 {
		oc.notef("CHECK FAILED: %d of %d responses differ from in-process SegmentsRLCCtx", mism, s.requests)
	}
}

// tableConfig is the table identity rlcxd resolves a shielding and
// frequency to.
func tableConfig(sh geom.Shielding, freq float64) table.Config {
	return table.Config{
		Name:           "serve/" + sh.String(),
		Thickness:      tech.Thickness,
		Rho:            tech.Rho,
		Shielding:      sh,
		PlaneGap:       tech.PlaneGap,
		PlaneThickness: tech.PlaneThickness,
		Frequency:      freq,
	}
}

func parseShielding(s string) (geom.Shielding, error) {
	switch s {
	case "coplanar":
		return geom.ShieldNone, nil
	case "microstrip":
		return geom.ShieldMicrostrip, nil
	}
	return 0, fmt.Errorf("unexpected shielding %q", s)
}

// anatomy serves one request in-process through the same public calls
// the daemon's handler makes, each inside a benchmark span: decode,
// registry acquire, extractor composition, extraction (whose spans are
// the program's own) and encode. It returns the encoded response.
func (s *serveRun) anatomy(ctx context.Context, body []byte) ([]byte, []core.Segment, error) {
	_, sp := obs.StartCtx(ctx, "serve.decode")
	var req serve.BatchRequest
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	err := dec.Decode(&req)
	segs := make([]core.Segment, len(req.Segments))
	needed := map[geom.Shielding]bool{}
	for i, sr := range req.Segments {
		sh, serr := parseShielding(sr.Shielding)
		if serr != nil && err == nil {
			err = serr
		}
		segs[i] = core.Segment{Length: units.Um(sr.LengthUm), SignalWidth: units.Um(sr.SignalWidthUm),
			GroundWidth: units.Um(sr.GroundWidthUm), Spacing: units.Um(sr.SpacingUm), Shielding: sh}
		needed[sh] = true
	}
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	freq := freqFor(req.RiseTimePs)

	actx, sp := obs.StartCtx(ctx, "serve.acquire")
	var sets []*table.Set
	for _, sh := range bothShieldings {
		if !needed[sh] {
			continue
		}
		set, release, aerr := s.local.Registry().Acquire(actx, tableConfig(sh, freq), table.DefaultAxes())
		if aerr != nil {
			err = aerr
			break
		}
		defer release()
		sets = append(sets, set.WithLookup(table.LookupExtrapolate))
	}
	sp.End()
	if err != nil {
		return nil, nil, err
	}

	_, sp = obs.StartCtx(ctx, "serve.compose")
	ext, err := core.NewExtractorFromTables(tech, freq, sets...)
	if err == nil {
		ext.Configure(core.WithChecks(check.Warn))
	}
	sp.End()
	if err != nil {
		return nil, nil, err
	}

	out, err := ext.SegmentsRLCCtx(ctx, segs)
	if err != nil {
		return nil, nil, err
	}

	_, sp = obs.StartCtx(ctx, "serve.encode")
	resp := serve.BatchResponse{Results: make([]serve.SegmentResult, len(out))}
	for i, rlc := range out {
		resp.Results[i] = serve.SegmentResult{ROhm: rlc.R, LH: rlc.L, CF: rlc.C}
	}
	var buf bytes.Buffer
	err = json.NewEncoder(&buf).Encode(resp)
	sp.End()
	return buf.Bytes(), segs, err
}

// traced is the traced serve run: a load phase against the traced
// daemon, then an in-process anatomy of the same requests with traced
// and untraced requests interleaved.
func (s *serveRun) traced(ctx context.Context, oc *outcome, r *rand.Rand) error {
	m := oc.metrics
	pid := s.tgt.pid()
	before, err := scrapeMetrics(s.client, s.url)
	if err != nil {
		return err
	}
	var dCPU0, dCPU1 time.Duration
	if pid != 0 {
		if dCPU0, err = procCPU(pid); err != nil {
			return err
		}
	}
	selfCPU0 := selfCPU()
	window := s.e.seconds * 4 / 10
	lo, f := s.phase(r, window)
	if pid != 0 {
		if dCPU1, err = procCPU(pid); err != nil {
			return err
		}
	}
	selfCPU1 := selfCPU()
	after, err := scrapeMetrics(s.client, s.url)
	if err != nil {
		return err
	}
	delta := func(name string) float64 { return after["clockrlc_"+name] - before["clockrlc_"+name] }
	m["serve.registry_hits"] = delta("serve_registry_hits")
	m["serve.registry_misses"] = delta("serve_registry_misses")
	m["serve.registry_evictions"] = delta("serve_registry_evictions")
	m["serve.shed"] = delta("serve_shed")
	m["serve.request_errors"] = delta("serve_request_errors")
	m["loadgen.late_frac"] = lo.lateFrac
	oc.notef("open loop at %d req/s over %d connections: %d offered, calibrated p50 %.4g ms, p%g %.4g ms, answered within the phase %.4f",
		serveRate, s.e.nproc, lo.offered, lo.lat.p50*f, lo.lat.tailPct, lo.lat.tail*f, lo.completedFrac)
	// The daemon's CPU and GC state is its own; this process's CPU in
	// the same window is the load generator's.
	if pid != 0 && lo.offered > 0 {
		dCPU, gCPU := dCPU1-dCPU0, selfCPU1-selfCPU0
		m["cpu_ms_per_op"] = float64(dCPU) / float64(time.Millisecond) / float64(lo.offered)
		if dCPU+gCPU > 0 {
			m["loadgen.cpu_frac"] = float64(gCPU) / float64(dCPU+gCPU)
		}
		m["go.gc_cycles_per_op"] = delta("runtime_num_gc") / float64(lo.offered)
		m["go.gc_pause_pct"] = 100 * delta("runtime_gc_pause_total_ns") / float64(window.Nanoseconds())
	}
	m["table.solver_calls"] = after["clockrlc_table_solver_calls"]
	m["table.cache_hits"] = after["clockrlc_table_cache_hits"]
	m["table.cache_misses"] = after["clockrlc_table_cache_misses"]

	// The anatomy: the same bodies through the same public calls
	// in-process, every other request traced.
	tr := &tracer{}
	loop := &opLoop{root: "bench.request", window: s.e.seconds * 4 / 10, traced: true, tr: tr}
	cBefore := readCounters()
	var segsSeen [][]core.Segment
	anatomyMismatch := 0
	err = loop.run(ctx, func(ctx context.Context, i int) error {
		bi := i % len(s.bodies)
		got, segs, err := s.anatomy(ctx, s.bodies[bi])
		if err != nil {
			return err
		}
		if i < len(s.bodies) {
			segsSeen = append(segsSeen, segs)
		}
		if !bytes.Equal(got, s.expected[bi]) {
			anatomyMismatch++
		}
		return nil
	})
	cDelta := readCounters().since(cBefore)
	if err != nil {
		return err
	}
	// The whole handler, in-process: what the daemon spends on a request
	// outside HTTP.
	var handler []time.Duration
	for _, b := range s.bodies {
		_, cal, _ := timed(func() error {
			s.local.Handler().ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(b)))
			return nil
		})
		handler = append(handler, cal)
	}
	s.account(oc)
	oc.check(loop.failures == 0, "%d of %d in-process anatomy requests failed", loop.failures, loop.ops())
	oc.check(anatomyMismatch == 0, "%d in-process anatomy responses differ from the handler's", anatomyMismatch)

	b := analyze(obs.BuildTrace(tr.events()), loop.root)
	m["serve.decode_pct"] = b.share("serve.decode")
	// Acquire includes mapping an evicted set back in (table.cache).
	m["serve.acquire_pct"] = b.share("serve.acquire", "table.cache")
	m["serve.compose_pct"] = b.share("serve.compose")
	m["serve.encode_pct"] = b.share("serve.encode")
	m["core.self_pct"] = b.share("core.batch")
	m["table.lookup.self_pct"] = b.share("table.lookup")
	m["coverage.unattributed_frac"] = b.unattributed(loop.root)
	m["obs.trace_overhead_frac"] = loop.overhead()
	setLookupMetrics(m, b, cDelta, loop.ops())
	m["table.lookup_clamped"] = after["clockrlc_table_lookup_clamped"] - before["clockrlc_table_lookup_clamped"]
	// The handler ran in this process after the phase: compare
	// calibrated times.
	if hp50, lp50 := durationsMedian(handler)*1e3, lo.lat.p50*f; lp50 > 0 {
		m["serve.http_pct"] = 100 * (lp50 - hp50) / lp50
	}
	if m["core.loopl_batch.us_per_seg"], err = s.loopLBatch(ctx, segsSeen); err != nil {
		return err
	}
	m["spline.distinct_query_frac"] = distinctQueryFrac(segsSeen)
	path, err := writeTrace(s.e.traceDir, "serve", tr.events())
	if err != nil {
		return err
	}
	oc.notef("trace: %s (%d traced of %d anatomy requests)", path, len(loop.tracedOp), loop.ops())

	// The daemon's own trace is complete once it has drained.
	if err := s.tgt.stop(); err != nil {
		return err
	}
	return s.daemonTraceMetrics(oc)
}

// loopLBatch times LoopLBatchCtx on the requests' segments, over
// tables acquired from the in-process registry at the middle rise time.
func (s *serveRun) loopLBatch(ctx context.Context, batches [][]core.Segment) (float64, error) {
	freq := freqFor(riseTimePs)
	var sets []*table.Set
	for _, sh := range bothShieldings {
		set, release, err := s.local.Registry().Acquire(ctx, tableConfig(sh, freq), table.DefaultAxes())
		if err != nil {
			return 0, err
		}
		defer release()
		sets = append(sets, set)
	}
	ext, err := core.NewExtractorFromTables(tech, freq, sets...)
	if err != nil {
		return 0, err
	}
	return loopLBatchUsPerSeg(ctx, ext, batches)
}

// daemonTraceMetrics reads the daemon's JSONL trace: its table builds,
// its cache opens and the self time of its request spans.
func (s *serveRun) daemonTraceMetrics(oc *outcome) error {
	path := filepath.Join(s.e.traceDir, "serve.rlcxd.jsonl")
	events, err := readTraceFile(path)
	if err != nil {
		return err
	}
	t := obs.BuildTrace(events)
	m := oc.metrics
	m["table.build_s"], m["table.build.parallel_eff"] = setupStats(t)
	m["table.cache.open_us"] = cacheOpenUs(t)
	var self, total time.Duration
	for _, sp := range t.Spans {
		if sp.Name == "serve.batch" {
			self += sp.SelfTime()
			total += sp.Dur
		}
	}
	if total > 0 {
		m["serve.batch.self_pct"] = 100 * float64(self) / float64(total)
	}
	oc.notef("daemon trace: %s (%d spans)", path, len(t.Spans))
	return nil
}
