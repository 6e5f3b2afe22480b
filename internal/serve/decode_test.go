package serve

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"

	"clockrlc/internal/check"
	"clockrlc/internal/table"
)

// batchBody64 is a json.Marshal'ed 64-segment /v1/batch body, the size
// rlcbench's serve workload sends: full-precision coordinates whose
// every lookup (the derived spacings too) falls inside testAxes, both
// shieldings.
func batchBody64(tb testing.TB) []byte {
	tb.Helper()
	r := rand.New(rand.NewPCG(1, 64))
	req := BatchRequest{RiseTimePs: 50}
	for i := 0; i < 64; i++ {
		sh := "coplanar"
		if r.IntN(2) == 1 {
			sh = "microstrip"
		}
		req.Segments = append(req.Segments, SegmentRequest{
			LengthUm:      120 + 800*r.Float64(),
			SignalWidthUm: 1 + 2*r.Float64(),
			GroundWidthUm: 1 + 2*r.Float64(),
			SpacingUm:     1 + r.Float64(),
			Shielding:     sh,
		})
	}
	b, err := json.Marshal(req)
	if err != nil {
		tb.Fatal(err)
	}
	return b
}

// serveRaw sends body to path through the handler, with no network in
// between.
func serveRaw(s *Server, path string, body []byte) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	return rec
}

// A body one byte over maxBodyBytes is refused as too large on both
// endpoints, even though every byte read is a valid prefix of a
// request.
func TestBodyTooLarge(t *testing.T) {
	s := newTestServer(t)
	head := `{"rise_time_ps":50,`
	body := []byte(head + strings.Repeat(" ", maxBodyBytes+1-len(head)))
	for _, path := range []string{"/v1/batch", "/v1/extract"} {
		rec := serveRaw(s, path, body)
		if rec.Code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400: %s", path, rec.Code, rec.Body.Bytes())
		}
		var e errorResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil || !strings.Contains(e.Error, "request body too large") {
			t.Errorf("%s: body %s does not name the size limit", path, rec.Body.Bytes())
		}
	}
}

// A Content-Length header is a claim, not a fact: a 100-byte body that
// claims maxBodyBytes must not make the daemon allocate for the claim.
func TestContentLengthDoesNotPresizeTheLimit(t *testing.T) {
	s := newTestServer(t)
	// Decodes, then is refused before any table is touched.
	body := `{"rise_time_ps":0,"segments":[{"length_um":500,"signal_width_um":2,"spacing_um":1.5}]}`
	body += strings.Repeat(" ", 100-len(body))
	r := httptest.NewRequest(http.MethodPost, "/v1/batch", strings.NewReader(body))
	r.ContentLength = maxBodyBytes
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	s.Handler().ServeHTTP(rec, r)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), "rise_time_ps") {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
	}
	if got := after.TotalAlloc - before.TotalAlloc; got >= 2<<20 {
		t.Errorf("a 100-byte body claiming %d bytes allocated %d bytes", maxBodyBytes, got)
	}
}

// BenchmarkBatchDecode is one 64-segment body through decodeJSON,
// including the httptest request and recorder it needs.
func BenchmarkBatchDecode(b *testing.B) {
	body := batchBody64(b)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		r := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
		var req BatchRequest
		if !decodeJSON(httptest.NewRecorder(), r, &req) {
			b.Fatal("decode refused the body")
		}
	}
}

// BenchmarkBatchHandler is one warm 64-segment request through the
// whole handler: admission, decode, registry hit, extraction, encode.
func BenchmarkBatchHandler(b *testing.B) {
	s, err := New(Config{
		Tech:          testTech(),
		Axes:          testAxes(),
		DefaultCheck:  check.Warn,
		DefaultLookup: table.LookupError,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	body := batchBody64(b)
	if rec := serveRaw(s, "/v1/batch", body); rec.Code != http.StatusOK {
		b.Fatalf("warm-up: status %d: %s", rec.Code, rec.Body.Bytes())
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rec := serveRaw(s, "/v1/batch", body); rec.Code != http.StatusOK {
			b.Fatalf("status %d: %s", rec.Code, rec.Body.Bytes())
		}
	}
}
