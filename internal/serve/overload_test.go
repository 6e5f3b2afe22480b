package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"clockrlc/internal/check"
	"clockrlc/internal/fault"
	"clockrlc/internal/obs"
	"clockrlc/internal/table"
)

// postFull posts a request and returns the full response (the
// overload tests need the Retry-After header, which postJSON drops).
func postFull(t *testing.T, ts *httptest.Server, path string, body any) (*http.Response, []byte) {
	t.Helper()
	b, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+path, "application/json", bytes.NewReader(b))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, out
}

func oneSegmentBatch() BatchRequest {
	return BatchRequest{RiseTimePs: 50, Segments: testSegments()[:1]}
}

// Admission control: with capacity 1 and no queue, a request that
// arrives while another holds the slot is shed with 429 + Retry-After
// and counted on serve.shed.
func TestShedAtCapacity(t *testing.T) {
	s, err := New(Config{
		Tech: testTech(), Axes: testAxes(),
		DefaultCheck: check.Warn, DefaultLookup: table.LookupError,
		MaxInFlight: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// Keep the first request's cold fill slow enough to straddle the
	// second request deterministically.
	fault.Register(fault.NewInjector(21, fault.Rule{
		Point: fault.SolverCall, Mode: fault.ModeLatency, Prob: 1, Delay: 2 * time.Millisecond,
	}))
	defer fault.Reset()

	shed0 := srvShed.Value()
	first := make(chan int, 1)
	go func() {
		status, _ := postJSON(t, ts, "/v1/batch", oneSegmentBatch())
		first <- status
	}()
	// Wait until the first request holds the admission slot.
	deadline := time.Now().Add(10 * time.Second)
	for len(s.adm.sem) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("first request never took the admission slot")
		}
		time.Sleep(time.Millisecond)
	}

	resp, body := postFull(t, ts, "/v1/batch", oneSegmentBatch())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if d := srvShed.Value() - shed0; d != 1 {
		t.Errorf("serve.shed delta = %d, want 1", d)
	}
	if status := <-first; status != http.StatusOK {
		t.Errorf("admitted request finished %d", status)
	}
}

// The overload drill: 16 clients against 4 admission slots and a
// 4-deep queue, with every lookup slowed by injected latency. The
// daemon must shed the excess with 429 + Retry-After and not collapse:
// no 500, no 503 from the 2 s request budget, no panic, and every
// request a retrying client makes ends in a 200 carrying exactly the
// bytes of an unloaded response.
func TestOverloadShedsWithoutCollapse(t *testing.T) {
	s, err := New(Config{
		Tech: testTech(), Axes: testAxes(),
		DefaultCheck: check.Warn, DefaultLookup: table.LookupError,
		MaxInFlight: 4, QueueDepth: 4, QueueWait: 5 * time.Millisecond,
		RequestTimeout: 2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients, perClient = 16, 10
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
	defer client.CloseIdleConnections()
	body, err := json.Marshal(oneSegmentBatch())
	if err != nil {
		t.Fatal(err)
	}
	post := func() (status int, retryAfter string, out []byte, err error) {
		resp, err := client.Post(ts.URL+"/v1/batch", "application/json", bytes.NewReader(body))
		if err != nil {
			return 0, "", nil, err
		}
		defer resp.Body.Close()
		out, err = io.ReadAll(resp.Body)
		return resp.StatusCode, resp.Header.Get("Retry-After"), out, err
	}

	// Warm the tables, so admitted requests are lookups, not builds.
	status, _, warm, err := post()
	if err != nil || status != http.StatusOK {
		t.Fatalf("warm-up: status %d, err %v: %s", status, err, warm)
	}

	fault.Register(fault.NewInjector(26, fault.Rule{
		Point: fault.SplineLookup, Mode: fault.ModeLatency, Prob: 1, Delay: 2 * time.Millisecond,
	}))
	defer fault.Reset()

	shed0, panics0 := srvShed.Value(), srvPanics.Value()
	var (
		mu                                 sync.Mutex
		oks, sheds, noRetryAfter, mismatch int
		other                              = map[int]int{}
		transportErr                       error
	)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for done := 0; done < perClient; {
				status, retryAfter, out, err := post()
				mu.Lock()
				switch {
				case err != nil:
					if transportErr == nil {
						transportErr = err
					}
				case status == http.StatusOK:
					oks++
					done++
					if !bytes.Equal(out, warm) {
						mismatch++
					}
				case status == http.StatusTooManyRequests:
					sheds++
					if retryAfter == "" {
						noRetryAfter++
					}
				default:
					other[status]++
				}
				mu.Unlock()
				if err != nil || status != http.StatusOK && status != http.StatusTooManyRequests {
					return
				}
				if status == http.StatusTooManyRequests {
					time.Sleep(time.Millisecond)
				}
			}
		}()
	}
	wg.Wait()

	if transportErr != nil {
		t.Fatalf("transport error under overload: %v", transportErr)
	}
	if len(other) != 0 {
		t.Errorf("statuses other than 200/429 under overload: %v", other)
	}
	if oks != clients*perClient {
		t.Errorf("%d of %d requests ended in 200", oks, clients*perClient)
	}
	if mismatch != 0 {
		t.Errorf("%d of %d 200 bodies differ from the unloaded response", mismatch, oks)
	}
	if sheds == 0 {
		t.Error("16 clients against 4 slots + 4 queued shed nothing: admission control is inert")
	}
	if noRetryAfter != 0 {
		t.Errorf("%d of %d 429s missing Retry-After", noRetryAfter, sheds)
	}
	if d := srvShed.Value() - shed0; d != int64(sheds) {
		t.Errorf("serve.shed delta = %d, want %d (the 429s clients saw)", d, sheds)
	}
	if d := srvPanics.Value() - panics0; d != 0 {
		t.Errorf("serve.panics delta = %d under overload, want 0", d)
	}
	t.Logf("%d requests answered 200 after %d sheds", oks, sheds)
}

// The serve.admit fault point sheds deterministically without
// consuming capacity.
func TestInjectedAdmitShed(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fault.Register(fault.NewInjector(22, fault.Rule{
		Point: fault.ServeAdmit, Mode: fault.ModeError, Prob: 1,
	}))
	shed0 := srvShed.Value()
	resp, body := postFull(t, ts, "/v1/batch", oneSegmentBatch())
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("injected shed without Retry-After")
	}
	if d := srvShed.Value() - shed0; d != 1 {
		t.Errorf("serve.shed delta = %d, want 1", d)
	}
	fault.Reset()
	if status, body := postJSON(t, ts, "/v1/batch", oneSegmentBatch()); status != http.StatusOK {
		t.Fatalf("post-injection request: status %d: %s", status, body)
	}
}

// A request whose budget fires mid-build answers 503 + Retry-After and
// lands on serve.deadline_exceeded, not client_gone.
func TestRequestDeadline503(t *testing.T) {
	s, err := New(Config{
		Tech: testTech(), Axes: testAxes(),
		DefaultCheck: check.Warn, DefaultLookup: table.LookupError,
		RequestTimeout: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	// ~40 solver calls × 5ms floors the cold build at ~200ms, far past
	// the 25ms budget; the build observes the deadline between calls.
	fault.Register(fault.NewInjector(23, fault.Rule{
		Point: fault.SolverCall, Mode: fault.ModeLatency, Prob: 1, Delay: 5 * time.Millisecond,
	}))
	defer fault.Reset()

	dead0, gone0 := srvDeadline.Value(), srvGone.Value()
	resp, body := postFull(t, ts, "/v1/batch", oneSegmentBatch())
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503: %s", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("deadline 503 without Retry-After")
	}
	if d := srvDeadline.Value() - dead0; d != 1 {
		t.Errorf("serve.deadline_exceeded delta = %d, want 1", d)
	}
	if d := srvGone.Value() - gone0; d != 0 {
		t.Errorf("serve.client_gone delta = %d, want 0", d)
	}

	// The client's timeout_ms rides the same path.
	fault.Reset()
	req := oneSegmentBatch()
	req.TimeoutMs = -5
	if status, body := postJSON(t, ts, "/v1/batch", req); status != http.StatusBadRequest {
		t.Fatalf("timeout_ms -5: status %d, want 400: %s", status, body)
	}
}

// A client that disconnects before the response is a 499 in the
// accounting — distinct from a server-caused 503.
func TestClientGone499(t *testing.T) {
	s := newTestServer(t)

	gone0 := srvGone.Value()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	b, _ := json.Marshal(oneSegmentBatch())
	r := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(b)).WithContext(ctx)
	w := httptest.NewRecorder()
	s.Handler().ServeHTTP(w, r)
	if w.Code != StatusClientClosedRequest {
		t.Fatalf("status %d, want 499: %s", w.Code, w.Body)
	}
	if d := srvGone.Value() - gone0; d != 1 {
		t.Errorf("serve.client_gone delta = %d, want 1", d)
	}
}

// The chaos acceptance from the issue: with serve.fill injected to
// always fail, 32 concurrent cold requests produce exactly one breaker
// trip, zero solver attempts, and 503 + Retry-After for every caller;
// once the injection clears and the cooldown expires, a single
// half-open probe recovers the key to 200. Deterministic under -race:
// failures are counted per caller observation, so any interleaving of
// the coalesced fill reaches the threshold, and trips serialise under
// the shard lock.
func TestBreakerChaosAcceptance(t *testing.T) {
	var (
		clockMu sync.Mutex
		clock   = time.Unix(1700000000, 0)
	)
	now := func() time.Time { clockMu.Lock(); defer clockMu.Unlock(); return clock }
	advance := func(d time.Duration) { clockMu.Lock(); clock = clock.Add(d); clockMu.Unlock() }

	const threshold = 3
	cfg := Config{
		Tech: testTech(), Axes: testAxes(),
		DefaultCheck: check.Warn, DefaultLookup: table.LookupError,
		BreakerFailures: threshold,
		BreakerCooldown: time.Hour,
	}
	cfg.now = now
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fault.Register(fault.NewInjector(31, fault.Rule{
		Point: fault.ServeFill, Mode: fault.ModeError, Prob: 1,
	}))
	defer fault.Reset()

	var (
		opens0  = regBkOpens.Value()
		probes0 = regBkProbes.Value()
		misses0 = regMisses.Value()
		solves0 = obs.GetCounter("table.solver_calls").Value()
	)

	const callers = 32
	statuses := make(chan int, callers)
	noRetryAfter := make(chan int, callers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			resp, _ := postFull(t, ts, "/v1/batch", oneSegmentBatch())
			statuses <- resp.StatusCode
			if resp.Header.Get("Retry-After") == "" {
				noRetryAfter <- resp.StatusCode
			}
		}()
	}
	close(start)
	wg.Wait()
	close(statuses)
	close(noRetryAfter)
	for status := range statuses {
		if status != http.StatusServiceUnavailable {
			t.Errorf("cold caller got %d, want 503", status)
		}
	}
	if n := len(noRetryAfter); n != 0 {
		t.Errorf("%d of %d 503s missing Retry-After", n, callers)
	}
	if d := regBkOpens.Value() - opens0; d != 1 {
		t.Errorf("serve.breaker_open delta = %d, want exactly 1 trip", d)
	}
	if d := obs.GetCounter("table.solver_calls").Value() - solves0; d != 0 {
		t.Errorf("solver calls = %d during injected fill failures, want 0", d)
	}
	// Fill attempts are bounded by the threshold: after the trip no
	// cold request reaches the fill path at all.
	if d := regMisses.Value() - misses0; d > threshold {
		t.Errorf("fill attempts = %d, want <= threshold %d", d, threshold)
	}

	// The open circuit is visible to operators.
	resp, body := func() (*http.Response, []byte) {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, b
	}()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "breakers_open 1") {
		t.Errorf("healthz during open circuit: %d %q, want ok with breakers_open 1", resp.StatusCode, body)
	}

	// While open and inside the cooldown the shed is a short-circuit:
	// no fill attempt, counted on breaker_rejected.
	rejected0 := regBkRejected.Value()
	if resp, body := postFull(t, ts, "/v1/batch", oneSegmentBatch()); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("during cooldown: status %d, want 503: %s", resp.StatusCode, body)
	}
	if d := regBkRejected.Value() - rejected0; d != 1 {
		t.Errorf("serve.breaker_rejected delta = %d, want 1", d)
	}

	// Injection clears, the cooldown expires: one half-open probe
	// rebuilds the table and the key recovers to 200.
	fault.Reset()
	advance(2 * time.Hour)
	if status, body := postJSON(t, ts, "/v1/batch", oneSegmentBatch()); status != http.StatusOK {
		t.Fatalf("post-recovery request: status %d: %s", status, body)
	}
	if d := regBkProbes.Value() - probes0; d != 1 {
		t.Errorf("serve.breaker_probes delta = %d, want 1", d)
	}
	resp2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body2, _ := io.ReadAll(resp2.Body)
	resp2.Body.Close()
	if !strings.Contains(string(body2), "breakers_open 0") {
		t.Errorf("healthz after recovery: %q, want breakers_open 0", body2)
	}
}

// A panicking handler is isolated: the client gets a 500, the panic is
// counted, and the in-flight accounting still drains.
func TestPanicIsolation(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	fault.Register(fault.NewInjector(24, fault.Rule{
		Point: fault.ServeRespond, Mode: fault.ModePanic, Prob: 1,
	}))
	panics0 := srvPanics.Value()
	status, body := postJSON(t, ts, "/v1/batch", oneSegmentBatch())
	if status != http.StatusInternalServerError {
		t.Fatalf("status %d, want 500: %s", status, body)
	}
	if !strings.Contains(string(body), "panic") {
		t.Errorf("500 body does not mention the panic: %s", body)
	}
	if d := srvPanics.Value() - panics0; d != 1 {
		t.Errorf("serve.panics delta = %d, want 1", d)
	}

	// The waitgroup was re-armed despite the panic: Drain returns.
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("Drain after panic: %v", err)
	}
	fault.Reset()
	if status, body := postJSON(t, ts, "/v1/batch", oneSegmentBatch()); status != http.StatusOK {
		t.Fatalf("post-panic request: status %d: %s", status, body)
	}
	if n := srvInFlightN.Load(); n != 0 {
		t.Errorf("inflight = %d after panic + drain", n)
	}
}

// Once StartDrain is called, /healthz answers 503 (load balancers stop
// routing) and new extraction requests are refused with Retry-After,
// while the metrics surface stays up.
func TestDrainFlipsReadiness(t *testing.T) {
	s := newTestServer(t)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	if status, body := postJSON(t, ts, "/v1/batch", oneSegmentBatch()); status != http.StatusOK {
		t.Fatalf("pre-drain request: status %d: %s", status, body)
	}
	s.StartDrain()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("healthz while draining: status %d, want 503", resp.StatusCode)
	}
	if !strings.Contains(string(body), "draining") {
		t.Errorf("healthz body %q does not say draining", body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("draining healthz without Retry-After")
	}
	resp2, body2 := postFull(t, ts, "/v1/batch", oneSegmentBatch())
	if resp2.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("extract while draining: status %d, want 503: %s", resp2.StatusCode, body2)
	}
	if resp2.Header.Get("Retry-After") == "" {
		t.Error("draining 503 without Retry-After")
	}
	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK {
		t.Errorf("metrics while draining: status %d, want 200", mresp.StatusCode)
	}
}

// Evict-while-filling racing Acquire at shard-colliding keys: a
// 1-per-shard registry is hammered by workers alternating two keys in
// one shard while cache loads are latency-injected, so evictions land
// on entries that are mid-fill or held. Every held set must stay
// readable (never munmapped underneath a request), and the churn must
// leak neither goroutines nor mappings.
func TestRegistryEvictWhileFillingRace(t *testing.T) {
	cache, err := table.NewCache(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	axes := testAxes()
	r := NewRegistry(RegistryOptions{Cache: cache, MaxSets: 1}) // perShard = 1
	cfgA := testTableConfig()
	cfgB := sameShardConfig(t, r, cfgA, axes)
	for _, cfg := range []table.Config{cfgA, cfgB} {
		if _, err := cache.GetOrBuildCtx(ctx, cfg, axes, nil); err != nil {
			t.Fatal(err)
		}
	}
	// Slow the mmap loads so fills genuinely overlap the evictions.
	fault.Register(fault.NewInjector(25, fault.Rule{
		Point: fault.CacheRead, Mode: fault.ModeLatency, Prob: 1, Delay: time.Millisecond,
	}))
	defer fault.Reset()

	goroutines0 := runtime.NumGoroutine()
	maps0 := mappingCount(t)

	const workers, iters = 8, 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		cfg := cfgA
		if w%2 == 1 {
			cfg = cfgB
		}
		wg.Add(1)
		go func(cfg table.Config) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				set, rel, err := r.Acquire(ctx, cfg, axes)
				if err != nil {
					t.Errorf("acquire: %v", err)
					return
				}
				if _, err := set.SelfL(set.Axes.Widths[0], set.Axes.Lengths[0]); err != nil {
					t.Errorf("lookup on held set: %v", err)
				}
				rel()
			}
		}(cfg)
	}
	wg.Wait()
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	// Goroutine flatness (the registry fills on caller goroutines; any
	// growth is a leak). Allow the runtime a moment to retire helpers.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines0+2 {
		if time.Now().After(deadline) {
			t.Errorf("goroutines grew %d → %d across the churn", goroutines0, runtime.NumGoroutine())
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if maps1 := mappingCount(t); maps1-maps0 > 4 {
		t.Errorf("mapping count grew %d → %d: evicted sets leaked mappings", maps0, maps1)
	}
}
