package serve

// Native fuzz targets for the daemon's request bodies, the one input
// boundary of rlcxd that takes bytes straight off the network. Each
// input runs through the full handler stack (instrument, admission,
// decode, registry, extraction, encode) on a small in-memory registry.
// The contract: no handler panic (serve.panics unchanged), never a
// 500, and a 200 only for a body that is exactly one JSON value,
// answered with valid JSON carrying exactly one result per requested
// segment. On every /v1/batch input, the one-pass scanner must agree
// with encoding/json whenever it accepts (checkScanAgrees). `make fuzz`
// gives each target a short randomised budget; the seeds run as
// ordinary cases in `go test`.

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"clockrlc/internal/check"
	"clockrlc/internal/table"
)

// fuzzServer is the daemon under fuzz: test axes, no cache, and a
// registry small enough that fuzzed rise times (each its own table
// key) evict and refill.
func fuzzServer(f *testing.F) *Server {
	s, err := New(Config{
		Tech:          testTech(),
		Axes:          testAxes(),
		MaxSets:       2,
		DefaultCheck:  check.Warn,
		DefaultLookup: table.LookupError,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	return s
}

// fuzzPost drives one raw body through the handler and enforces the
// status contract every endpoint shares.
func fuzzPost(t *testing.T, s *Server, path string, body []byte) *httptest.ResponseRecorder {
	t.Helper()
	panics0 := srvPanics.Value()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
	if d := srvPanics.Value() - panics0; d != 0 {
		t.Fatalf("%s: handler panicked on body %q: %s", path, body, rec.Body.Bytes())
	}
	if rec.Code == http.StatusInternalServerError {
		t.Fatalf("%s: 500 on body %q: %s", path, body, rec.Body.Bytes())
	}
	if rec.Code == http.StatusOK {
		if !json.Valid(body) {
			t.Fatalf("%s: 200 for a body that is not one JSON value: %q", path, body)
		}
		if !json.Valid(rec.Body.Bytes()) {
			t.Fatalf("%s: 200 with an invalid JSON response %q for body %q", path, rec.Body.Bytes(), body)
		}
	}
	return rec
}

func FuzzBatchBody(f *testing.F) {
	s := fuzzServer(f)
	f.Add([]byte(`{"rise_time_ps":50,"segments":[{"length_um":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5},` +
		`{"length_um":300,"signal_width_um":1.5,"ground_width_um":3,"spacing_um":1.2,"shielding":"microstrip"}]}`))
	f.Add([]byte(`{"rise_time_ps":50,"segments":[{"length_um":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5}]} trailing garbage`))
	f.Add([]byte(`{"rise_time_ps":50,"segments":[{"length_um":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5}]}{"rise_time_ps":-1}`))
	f.Add([]byte(`{"rise_time_ps":50,"bogus":1,"segments":[{"length_um":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5}]}`))
	f.Add([]byte(`{"rise_time_ps":50,"segments":[]}`))
	f.Add([]byte(`{"rise_time_ps":-1,"segments":[{"length_um":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5}]}`))
	f.Add([]byte(`{"rise_time_ps":50,"timeout_ms":1e-9,"segments":[{"length_um":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5}]}`))
	// Inputs that once reached a 500 or an empty 200: a rise time with
	// no finite frequency, a gap lost to rounding, and a clamped
	// extraction whose R and C overflow.
	f.Add([]byte(`{"rise_time_ps":1e-300,"segments":[{"length_um":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5}]}`))
	f.Add([]byte(`{"rise_time_ps":50,"segments":[{"length_um":500,"signal_width_um":1e300,"ground_width_um":2,"spacing_um":1.5}]}`))
	f.Add([]byte(`{"rise_time_ps":50,"lookup_policy":"clamp","segments":[{"length_um":1e-300,"signal_width_um":1e-300,"ground_width_um":1e-300,"spacing_um":1e-300}]}`))
	// Bodies encoding/json decodes or refuses that the one-pass scanner
	// must refuse: null, an escape, a case-folded or repeated key, a
	// number ParseFloat refuses, a BOM, an empty body, a non-object and
	// null values (an unknown key and trailing data are seeded above).
	f.Add([]byte(`null`))
	f.Add([]byte(`{"rise_time_ps":50,"segments":[{"length_um":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5,"shielding":"\u0063oplanar"}]}`))
	f.Add([]byte(`{"Rise_Time_Ps":50,"segments":[{"Length_UM":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5}]}`))
	f.Add([]byte(`{"rise_time_ps":40,"rise_time_ps":50,"segments":[{"length_um":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5,"spacing_um":1.2}]}`))
	f.Add([]byte(`{"rise_time_ps":1e400,"segments":[{"length_um":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5}]}`))
	f.Add([]byte("\xef\xbb\xbf{\"rise_time_ps\":50,\"segments\":[{\"length_um\":500,\"signal_width_um\":2,\"ground_width_um\":2,\"spacing_um\":1.5}]}"))
	f.Add([]byte(``))
	f.Add([]byte(`[{"rise_time_ps":50}]`))
	f.Add([]byte(`{"rise_time_ps":50,"check":null,"segments":null}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		checkScanAgrees(t, body)
		rec := fuzzPost(t, s, "/v1/batch", body)
		if rec.Code != http.StatusOK {
			return
		}
		var req BatchRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatalf("200 for a body the decoder should have refused: %v", err)
		}
		var resp BatchResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
			t.Fatalf("200 response is not a batch response: %v", err)
		}
		if len(resp.Results) != len(req.Segments) {
			t.Fatalf("%d results for %d requested segments", len(resp.Results), len(req.Segments))
		}
	})
}

func FuzzExtractBody(f *testing.F) {
	s := fuzzServer(f)
	f.Add([]byte(`{"rise_time_ps":50,"length_um":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5}`))
	f.Add([]byte(`{"rise_time_ps":50,"length_um":300,"signal_width_um":1.5,"ground_width_um":3,"spacing_um":1.2,"shielding":"microstrip"}`))
	f.Add([]byte(`{"rise_time_ps":50,"length_um":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5} trailing garbage`))
	f.Add([]byte(`{"rise_time_ps":50,"length_um":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5}{"rise_time_ps":-1}`))
	f.Add([]byte(`{"rise_time_ps":50,"bogus":1,"length_um":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5}`))
	f.Add([]byte(`{"rise_time_ps":50}`))
	f.Add([]byte(`{"rise_time_ps":-1,"length_um":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5}`))
	f.Add([]byte(`{"rise_time_ps":50,"timeout_ms":1e-9,"length_um":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5}`))
	f.Add([]byte(`{"rise_time_ps":1e-320,"length_um":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5}`))
	f.Add([]byte(`{"rise_time_ps":50,"lookup_policy":"extrapolate","length_um":500,"signal_width_um":1e-300,"ground_width_um":1e-300,"spacing_um":1e-300}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := fuzzPost(t, s, "/v1/extract", body)
		if rec.Code != http.StatusOK {
			return
		}
		// One requested segment, so exactly one result object.
		var res map[string]float64
		if err := json.Unmarshal(rec.Body.Bytes(), &res); err != nil {
			t.Fatalf("200 response is not one result object: %v", err)
		}
		if _, ok := res["l_h"]; len(res) != 3 || !ok {
			t.Fatalf("200 response %v is not one segment result", res)
		}
	})
}
