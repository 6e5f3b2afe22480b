package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"clockrlc/internal/check"
	"clockrlc/internal/cliobs"
	"clockrlc/internal/core"
	"clockrlc/internal/fault"
	"clockrlc/internal/geom"
	"clockrlc/internal/netlist"
	"clockrlc/internal/obs"
	"clockrlc/internal/table"
	"clockrlc/internal/units"
)

// Request accounting: requests by endpoint outcome, segments
// extracted through the service, and request latency. Overload
// accounting: shed counts requests refused by admission control
// (429), deadline_exceeded counts requests whose per-request budget
// fired (503), client_gone counts requests whose client disconnected
// before the response (499), and panics counts handler panics
// recovered into 500s.
var (
	srvRequests  = obs.GetCounter("serve.requests")
	srvErrors    = obs.GetCounter("serve.request_errors")
	srvSegments  = obs.GetCounter("serve.segments")
	srvLatency   = obs.GetHistogram("serve.request_seconds")
	srvInFlight  = obs.GetGauge("serve.inflight")
	srvShed      = obs.GetCounter("serve.shed")
	srvDeadline  = obs.GetCounter("serve.deadline_exceeded")
	srvGone      = obs.GetCounter("serve.client_gone")
	srvPanics    = obs.GetCounter("serve.panics")
	srvInFlightN atomic.Int64
)

// StatusClientClosedRequest is nginx's 499: the client went away
// before the response; no standard code covers it and the distinction
// from a server-caused 503 matters when reading overload dashboards.
const StatusClientClosedRequest = 499

// maxBodyBytes bounds a request body; a batch of tens of thousands of
// segments fits comfortably.
const maxBodyBytes = 16 << 20

// Config parameterises the daemon's extraction service.
type Config struct {
	// Tech is the routing technology every request extracts against.
	Tech core.Technology
	// Axes are the table axes (zero value selects table.DefaultAxes).
	Axes table.Axes
	// Cache is the content-addressed on-disk cache backing the
	// registry; nil builds tables in memory only.
	Cache *table.Cache
	// MaxSets bounds the registry's resident table sets (see
	// RegistryOptions.MaxSets; 0 = unbounded).
	MaxSets int
	// Workers bounds each request's extraction fan-out and any table
	// build's sweep pool (0 = GOMAXPROCS).
	Workers int
	// DefaultCheck is the physical-invariant policy applied when a
	// request does not select one.
	DefaultCheck check.Policy
	// DefaultLookup is the out-of-range lookup policy applied when a
	// request does not select one.
	DefaultLookup table.LookupPolicy

	// MaxInFlight bounds concurrently admitted extract/batch requests
	// (0 = unbounded: admission control off).
	MaxInFlight int
	// QueueDepth bounds requests waiting for an admission slot; at
	// capacity with a full queue the daemon sheds with 429 +
	// Retry-After. 0 means shed immediately at capacity.
	QueueDepth int
	// QueueWait bounds how long a queued request waits before being
	// shed (0 = 1s). Only meaningful with MaxInFlight > 0.
	QueueWait time.Duration
	// RequestTimeout is the per-request extraction budget wrapped into
	// the request context; clients may lower it (or set their own when
	// this is 0) via timeout_ms, but never raise it past this cap.
	// 0 = no server-imposed deadline.
	RequestTimeout time.Duration
	// BreakerFailures opens a table key's cold-build circuit breaker
	// after that many consecutive fill failures (0 = breaker off).
	BreakerFailures int
	// BreakerCooldown is how long an open circuit sheds cold requests
	// for that key before admitting a half-open probe (0 = 5s).
	BreakerCooldown time.Duration

	// now overrides the breaker clock in tests; nil means time.Now.
	now func() time.Time
}

// Server is the extraction service: request handlers over a
// bounded registry of table sets. Create with New, mount Handler
// on an http.Server, and Close when drained.
type Server struct {
	cfg      Config
	reg      *Registry
	adm      *admitter
	mux      *http.ServeMux
	inflight sync.WaitGroup
	draining atomic.Bool
}

// New validates cfg and builds the service.
func New(cfg Config) (*Server, error) {
	if err := cfg.Tech.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Axes.Widths) == 0 && len(cfg.Axes.Spacings) == 0 && len(cfg.Axes.Lengths) == 0 {
		cfg.Axes = table.DefaultAxes()
	}
	if err := cfg.Axes.Validate(); err != nil {
		return nil, err
	}
	s := &Server{
		cfg: cfg,
		reg: NewRegistry(RegistryOptions{
			Cache:           cfg.Cache,
			MaxSets:         cfg.MaxSets,
			BreakerFailures: cfg.BreakerFailures,
			BreakerCooldown: cfg.BreakerCooldown,
			Now:             cfg.now,
		}),
		adm: newAdmitter(cfg.MaxInFlight, cfg.QueueDepth, cfg.QueueWait),
		mux: http.NewServeMux(),
	}
	s.mux.HandleFunc("POST /v1/extract", s.instrument("extract", s.handleExtract))
	s.mux.HandleFunc("POST /v1/batch", s.instrument("batch", s.handleBatch))
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	debug := cliobs.NewDebugMux()
	s.mux.Handle("/debug/", debug)
	s.mux.Handle("/metrics", debug)
	return s, nil
}

// handleHealthz is the readiness probe: "ok" while serving, 503
// "draining" once StartDrain has been called so load balancers stop
// routing during the drain window. The breaker line gives operators
// the one number the runbook keys off: how many table keys are
// currently refusing cold builds.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	open := s.reg.OpenBreakers()
	if s.draining.Load() {
		w.Header().Set("Retry-After", "1")
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintln(w, "draining")
		fmt.Fprintf(w, "breakers_open %d\n", open)
		return
	}
	fmt.Fprintln(w, "ok")
	fmt.Fprintf(w, "breakers_open %d\n", open)
}

// StartDrain flips readiness: /healthz starts answering 503 and new
// extract/batch requests are refused with 503 + Retry-After, while
// already-admitted requests run to completion. Call before
// http.Server.Shutdown so load balancers observe the flip while the
// listener still accepts probes.
func (s *Server) StartDrain() { s.draining.Store(true) }

// Draining reports whether StartDrain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Handler returns the service's HTTP handler: /v1/extract, /v1/batch,
// /healthz, /metrics (Prometheus text), /debug/vars and
// /debug/pprof/*.
func (s *Server) Handler() http.Handler { return s.mux }

// Registry exposes the table-set registry (for tests and metrics).
func (s *Server) Registry() *Registry { return s.reg }

// Drain blocks until every in-flight request has finished or ctx
// expires. http.Server.Shutdown already refuses new connections and
// waits for active ones; Drain additionally covers handlers driven
// through Handler() directly (tests, embedding).
func (s *Server) Drain(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Close drops the registry's table sets. Call after Drain. The error
// is always nil.
func (s *Server) Close() error {
	s.reg.Close()
	return nil
}

// SegmentRequest is one wire segment, in the units the CLIs use
// (micrometres; the response is SI).
type SegmentRequest struct {
	LengthUm      float64 `json:"length_um"`
	SignalWidthUm float64 `json:"signal_width_um"`
	GroundWidthUm float64 `json:"ground_width_um"`
	SpacingUm     float64 `json:"spacing_um"`
	// Shielding is "coplanar" (default), "microstrip" or "stripline".
	Shielding string `json:"shielding,omitempty"`
}

// BatchRequest extracts a batch of segments at one significant
// frequency. Check and LookupPolicy select per-request policies
// (empty = the server's defaults). TimeoutMs lowers the per-request
// extraction budget below the server's -request-timeout (it can never
// raise it past that cap).
type BatchRequest struct {
	RiseTimePs   float64          `json:"rise_time_ps"`
	Check        string           `json:"check,omitempty"`
	LookupPolicy string           `json:"lookup_policy,omitempty"`
	TimeoutMs    float64          `json:"timeout_ms,omitempty"`
	Segments     []SegmentRequest `json:"segments"`
}

// ExtractRequest is BatchRequest's single-segment form: the segment
// fields are inlined.
type ExtractRequest struct {
	SegmentRequest
	RiseTimePs   float64 `json:"rise_time_ps"`
	Check        string  `json:"check,omitempty"`
	LookupPolicy string  `json:"lookup_policy,omitempty"`
	TimeoutMs    float64 `json:"timeout_ms,omitempty"`
}

// SegmentResult is one extracted segment, SI units.
type SegmentResult struct {
	ROhm float64 `json:"r_ohm"`
	LH   float64 `json:"l_h"`
	CF   float64 `json:"c_f"`
}

// BatchResponse carries results in input order.
type BatchResponse struct {
	Results []SegmentResult `json:"results"`
}

// errorResponse is every error body: {"error": "..."}.
type errorResponse struct {
	Error string `json:"error"`
}

// statusWriter records whether (and with what status) a handler has
// responded, so the panic recovery path knows if a best-effort 500 is
// still possible and tests can observe the mapped status.
type statusWriter struct {
	http.ResponseWriter
	status int
	wrote  bool
}

func (sw *statusWriter) WriteHeader(status int) {
	if !sw.wrote {
		sw.wrote = true
		sw.status = status
	}
	sw.ResponseWriter.WriteHeader(status)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if !sw.wrote {
		sw.wrote = true
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

// instrument wraps a handler with the in-flight waitgroup, the
// request counters/latency histogram, admission control, the drain
// gate, and panic isolation. The recover runs inside the same
// deferred function that re-arms the waitgroup, so a panicking
// handler still reaches inflight.Done and Drain can never deadlock on
// a crashed request.
func (s *Server) instrument(name string, h func(http.ResponseWriter, *http.Request)) func(http.ResponseWriter, *http.Request) {
	return func(w http.ResponseWriter, r *http.Request) {
		s.inflight.Add(1)
		srvInFlight.Set(float64(srvInFlightN.Add(1)))
		srvRequests.Inc()
		t0 := time.Now()
		ctx, sp := obs.StartCtx(r.Context(), "serve."+name)
		sw := &statusWriter{ResponseWriter: w}
		defer func() {
			if p := recover(); p != nil {
				srvPanics.Inc()
				srvErrors.Inc()
				if !sw.wrote {
					writeJSON(sw, http.StatusInternalServerError,
						errorResponse{Error: fmt.Sprintf("internal error: handler panic: %v", p)})
				}
			}
			sp.End()
			srvLatency.Observe(time.Since(t0).Seconds())
			srvInFlight.Set(float64(srvInFlightN.Add(-1)))
			s.inflight.Done()
		}()
		if s.draining.Load() {
			sw.Header().Set("Retry-After", "1")
			srvErrors.Inc()
			writeJSON(sw, http.StatusServiceUnavailable, errorResponse{Error: "serve: draining"})
			return
		}
		release, err := s.admitRequest(ctx)
		if err != nil {
			s.writeRequestError(sw, r, ctx, err)
			return
		}
		defer release()
		h(sw, r.WithContext(ctx))
	}
}

// admitRequest runs the serve.admit fault point and the admission
// semaphore; either can shed the request.
func (s *Server) admitRequest(ctx context.Context) (func(), error) {
	if err := fault.Check(fault.ServeAdmit); err != nil {
		return nil, &ShedError{Reason: "injected", RetryAfter: time.Second}
	}
	return s.adm.admit(ctx)
}

// requestBudget resolves the effective extraction deadline from the
// server cap and the client's timeout_ms. The client may only lower
// the server's budget; with no server cap the client's value is
// taken as-is.
func (s *Server) requestBudget(timeoutMs float64) (time.Duration, error) {
	if timeoutMs < 0 || math.IsNaN(timeoutMs) || math.IsInf(timeoutMs, 0) {
		return 0, &badRequestError{fmt.Errorf("timeout_ms %g must be a non-negative number", timeoutMs)}
	}
	client := time.Duration(timeoutMs * float64(time.Millisecond))
	server := s.cfg.RequestTimeout
	switch {
	case client <= 0:
		return server, nil
	case server > 0 && client > server:
		return server, nil
	default:
		return client, nil
	}
}

func (s *Server) handleExtract(w http.ResponseWriter, r *http.Request) {
	var req ExtractRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	s.serveBatch(w, r, BatchRequest{
		RiseTimePs:   req.RiseTimePs,
		Check:        req.Check,
		LookupPolicy: req.LookupPolicy,
		TimeoutMs:    req.TimeoutMs,
		Segments:     []SegmentRequest{req.SegmentRequest},
	}, func(out []netlist.SegmentRLC) any { return toResult(out[0]) })
}

func (s *Server) handleBatch(w http.ResponseWriter, r *http.Request) {
	var req BatchRequest
	if !decodeJSON(w, r, &req) {
		return
	}
	s.serveBatch(w, r, req, func(out []netlist.SegmentRLC) any {
		resp := BatchResponse{Results: make([]SegmentResult, len(out))}
		for i, rlc := range out {
			resp.Results[i] = toResult(rlc)
		}
		return resp
	})
}

// serveBatch is the shared handler body: resolve the request budget,
// run the extraction under it, classify any failure, and encode the
// response (crossing the serve.respond fault point).
func (s *Server) serveBatch(w http.ResponseWriter, r *http.Request, req BatchRequest,
	shape func([]netlist.SegmentRLC) any) {
	budget, err := s.requestBudget(req.TimeoutMs)
	if err != nil {
		s.writeRequestError(w, r, r.Context(), err)
		return
	}
	ctx := r.Context()
	if budget > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, budget)
		defer cancel()
	}
	out, err := s.extract(ctx, req)
	if err == nil {
		err = fault.Check(fault.ServeRespond)
	}
	if err != nil {
		s.writeRequestError(w, r, ctx, err)
		return
	}
	writeJSON(w, http.StatusOK, shape(out))
}

// badRequestError marks client-side validation failures (HTTP 400).
type badRequestError struct{ err error }

func (e *badRequestError) Error() string { return e.err.Error() }
func (e *badRequestError) Unwrap() error { return e.err }

// extract is the request core: resolve policies, pin the needed table
// sets in the registry, compose a per-request extractor over the
// shared sets, and run the vectorized batch path. Results are in
// input order; the first failing segment aborts the batch with an
// error naming its index.
func (s *Server) extract(ctx context.Context, req BatchRequest) ([]netlist.SegmentRLC, error) {
	if len(req.Segments) == 0 {
		return nil, &badRequestError{errors.New("no segments in request")}
	}
	if req.RiseTimePs <= 0 {
		return nil, &badRequestError{fmt.Errorf("rise_time_ps %g must be positive", req.RiseTimePs)}
	}
	checkPolicy := s.cfg.DefaultCheck
	if req.Check != "" {
		p, err := check.ParsePolicy(req.Check)
		if err != nil {
			return nil, &badRequestError{err}
		}
		checkPolicy = p
	}
	lookup := s.cfg.DefaultLookup
	if req.LookupPolicy != "" {
		p, err := table.ParseLookupPolicy(req.LookupPolicy)
		if err != nil {
			return nil, &badRequestError{err}
		}
		lookup = p
	}
	freq := units.SignificantFrequency(req.RiseTimePs * units.PicoSecond)
	if freq <= 0 || math.IsInf(freq, 0) {
		return nil, &badRequestError{fmt.Errorf("rise_time_ps %g gives no finite significant frequency", req.RiseTimePs)}
	}

	// The shieldings the request needs, in order of first appearance,
	// so its acquires (and the evictions they cause) are the same on
	// every run.
	segs := make([]core.Segment, len(req.Segments))
	var shBuf [3]geom.Shielding
	needed := shBuf[:0]
	for i, sr := range req.Segments {
		sh, err := parseShielding(sr.Shielding)
		if err != nil {
			return nil, &badRequestError{fmt.Errorf("segment %d: %w", i, err)}
		}
		segs[i] = core.Segment{
			Length:      units.Um(sr.LengthUm),
			SignalWidth: units.Um(sr.SignalWidthUm),
			GroundWidth: units.Um(sr.GroundWidthUm),
			Spacing:     units.Um(sr.SpacingUm),
			Shielding:   sh,
		}
		if err := segs[i].Validate(); err != nil {
			return nil, &badRequestError{fmt.Errorf("segment %d: %w", i, err)}
		}
		if !slices.Contains(needed, sh) {
			needed = append(needed, sh)
		}
	}

	// The sets are shared across requests; the per-request lookup
	// policy rides a shallow header copy, never a write to the shared
	// set.
	var sets []*table.Set
	for _, sh := range needed {
		set, _, err := s.reg.Acquire(ctx, s.tableConfig(sh, freq), s.cfg.Axes)
		if err != nil {
			return nil, err
		}
		sets = append(sets, set.WithLookup(lookup))
	}
	ext, err := core.NewExtractorFromTables(s.cfg.Tech, freq, sets...)
	if err != nil {
		return nil, err
	}
	ext.Configure(core.WithChecks(checkPolicy))

	// The vectorized batch path: one spline contraction pass per
	// shielding group, repeated geometries deduped.
	out, err := ext.SegmentsRLCCtx(ctx, segs)
	if err != nil {
		return nil, err
	}
	srvSegments.Add(int64(len(out)))
	return out, nil
}

// tableConfig is the table identity a shielding configuration at a
// significant frequency resolves to — identical physics to what the
// CLIs build, so daemon and CLI share cache entries.
func (s *Server) tableConfig(sh geom.Shielding, freq float64) table.Config {
	return table.Config{
		Name:           "serve/" + sh.String(),
		Thickness:      s.cfg.Tech.Thickness,
		Rho:            s.cfg.Tech.Rho,
		Shielding:      sh,
		PlaneGap:       s.cfg.Tech.PlaneGap,
		PlaneThickness: s.cfg.Tech.PlaneThickness,
		Frequency:      freq,
		Workers:        s.cfg.Workers,
	}
}

// parseShielding reads a request's shielding name; an empty one is
// coplanar.
func parseShielding(s string) (geom.Shielding, error) {
	if s == "" {
		return geom.ShieldNone, nil
	}
	return geom.ParseShielding(s)
}

func toResult(rlc netlist.SegmentRLC) SegmentResult {
	return SegmentResult{ROhm: rlc.R, LH: rlc.L, CF: rlc.C}
}

// decodeJSON reads the request body, at most maxBodyBytes of it, and
// decodes it as exactly one JSON value: unknown fields and anything but
// whitespace after the value are a 400, never silently ignored. A
// /v1/batch body goes through scanBatch first; every body it refuses,
// and every other request type, is decoded from the same bytes by
// encoding/json.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := readBody(w, r)
	if err == nil {
		if req, ok := v.(*BatchRequest); !ok || !scanBatch(body, req) {
			err = decodeStd(body, v)
		}
	}
	if err != nil {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		srvErrors.Inc()
		return false
	}
	return true
}

// maxBodyPresize caps the buffer readBody allocates before any byte
// arrives, so a false Content-Length cannot make the daemon allocate
// maxBodyBytes per request; past it the buffer grows as bytes arrive.
const maxBodyPresize = 1 << 20

// readBody reads the whole request body through http.MaxBytesReader,
// into one buffer presized from Content-Length (plus bytes.MinRead, so
// the read that sees EOF needs no growth). A body over maxBodyBytes is
// the reader's "request body too large" error, whatever it holds.
func readBody(w http.ResponseWriter, r *http.Request) ([]byte, error) {
	size := min(max(r.ContentLength, 0), maxBodyPresize)
	buf := bytes.NewBuffer(make([]byte, 0, size+bytes.MinRead))
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxBodyBytes))
	return buf.Bytes(), err
}

// decodeStd decodes body into v with encoding/json: unknown fields are
// refused, and so is anything but whitespace after the one value.
func decodeStd(body []byte, v any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if _, err := dec.Token(); err != io.EOF {
		return errors.New("trailing data after the JSON value")
	}
	return nil
}

// retryAfterValue renders a Retry-After header value: whole seconds,
// rounded up, floored at 1 (the header has second granularity and 0
// would invite an immediate stampede).
func retryAfterValue(d time.Duration) string {
	secs := int(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.Itoa(secs)
}

// writeRequestError maps a request failure to the service's status
// contract:
//
//	400  malformed request, bad geometry, bad timeout_ms
//	422  out-of-range lookup (error policy), strict-check violation,
//	     non-finite or unphysical extracted R/L/C
//	429  shed by admission control            (+ Retry-After)
//	499  client disconnected before the response
//	503  request budget exceeded, cold-build failure, breaker open,
//	     draining                             (+ Retry-After)
//	500  everything else (including recovered handler panics)
//
// reqCtx is the context the extraction actually ran under (it carries
// the per-request budget); r.Context() distinguishes a client that
// hung up from a budget that fired.
func (s *Server) writeRequestError(w http.ResponseWriter, r *http.Request, reqCtx context.Context, err error) {
	srvErrors.Inc()
	var (
		status = http.StatusInternalServerError
		retry  time.Duration
		bad    *badRequestError
		shed   *ShedError
		open   *BreakerOpenError
		fill   *FillError
	)
	switch {
	case errors.As(err, &bad), errors.Is(err, core.ErrBadGeometry):
		status = http.StatusBadRequest
	case errors.Is(err, table.ErrOutOfRange), errors.Is(err, check.ErrViolation),
		errors.Is(err, core.ErrUnphysical):
		status = http.StatusUnprocessableEntity
	case errors.As(err, &shed):
		status = http.StatusTooManyRequests
		retry = shed.RetryAfter
		srvShed.Inc()
	case errors.As(err, &open):
		status = http.StatusServiceUnavailable
		retry = open.RetryAfter
	case errors.As(err, &fill):
		status = http.StatusServiceUnavailable
		retry = fill.RetryAfter
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		switch {
		case r != nil && r.Context().Err() != nil:
			// The client's connection context died: nobody is reading
			// this response, but the status still lands in the access
			// accounting.
			status = StatusClientClosedRequest
			srvGone.Inc()
		case reqCtx != nil && errors.Is(reqCtx.Err(), context.DeadlineExceeded):
			status = http.StatusServiceUnavailable
			retry = time.Second
			srvDeadline.Inc()
		default:
			status = http.StatusServiceUnavailable
			retry = time.Second
		}
	}
	if retry > 0 {
		w.Header().Set("Retry-After", retryAfterValue(retry))
	}
	writeJSON(w, status, errorResponse{Error: err.Error()})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	if status != http.StatusOK {
		enc.SetIndent("", "  ") // error bodies are read by humans
	}
	enc.Encode(v)
}
