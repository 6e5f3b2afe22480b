package serve

import (
	"bytes"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// batchDiff names the first field where a and b differ, or returns "".
// Floats compare by bits, so -0 against 0 is a difference, and a nil
// Segments differs from an empty one.
func batchDiff(a, b BatchRequest) string {
	sameF := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	switch {
	case !sameF(a.RiseTimePs, b.RiseTimePs):
		return fmt.Sprintf("rise_time_ps %v vs %v", a.RiseTimePs, b.RiseTimePs)
	case a.Check != b.Check:
		return fmt.Sprintf("check %q vs %q", a.Check, b.Check)
	case a.LookupPolicy != b.LookupPolicy:
		return fmt.Sprintf("lookup_policy %q vs %q", a.LookupPolicy, b.LookupPolicy)
	case !sameF(a.TimeoutMs, b.TimeoutMs):
		return fmt.Sprintf("timeout_ms %v vs %v", a.TimeoutMs, b.TimeoutMs)
	case (a.Segments == nil) != (b.Segments == nil):
		return fmt.Sprintf("segments nil %v vs %v", a.Segments == nil, b.Segments == nil)
	case len(a.Segments) != len(b.Segments):
		return fmt.Sprintf("%d segments vs %d", len(a.Segments), len(b.Segments))
	}
	for i, x := range a.Segments {
		y := b.Segments[i]
		if !sameF(x.LengthUm, y.LengthUm) || !sameF(x.SignalWidthUm, y.SignalWidthUm) ||
			!sameF(x.GroundWidthUm, y.GroundWidthUm) || !sameF(x.SpacingUm, y.SpacingUm) ||
			x.Shielding != y.Shielding {
			return fmt.Sprintf("segment %d: %+v vs %+v", i, x, y)
		}
	}
	return ""
}

// checkScanAgrees asserts the scanner's contract on one body: when it
// accepts, encoding/json accepts the body too and decodes the same
// struct; when it refuses, it leaves the request zeroed.
func checkScanAgrees(t *testing.T, body []byte) (accepted bool) {
	t.Helper()
	var scanned BatchRequest
	if !scanBatch(body, &scanned) {
		if !reflect.DeepEqual(scanned, BatchRequest{}) {
			t.Fatalf("scanner refused %q but left %+v", body, scanned)
		}
		return false
	}
	var std BatchRequest
	if err := decodeStd(body, &std); err != nil {
		t.Fatalf("scanner accepted %q, which encoding/json refuses: %v", body, err)
	}
	if d := batchDiff(scanned, std); d != "" {
		t.Fatalf("scanner and encoding/json disagree on %q: %s", body, d)
	}
	return true
}

const scanSeg = `{"length_um":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5}`

func TestScanBatchAcceptsOnlyWhatEncodingJSONDecodesAlike(t *testing.T) {
	for _, body := range []string{
		`{"rise_time_ps":50,"segments":[` + scanSeg + `]}`,
		" \t\r\n{ \"segments\" : [ { \"shielding\" : \"stripline\" , \"spacing_um\" : 1.5 } ] , \"rise_time_ps\" : 50 } \n",
		`{"rise_time_ps":-0,"timeout_ms":1.5e3,"check":"strict","lookup_policy":"clamp","segments":[{}]}`,
		`{"rise_time_ps":0.0001E+2,"segments":[{"length_um":1e-400,"signal_width_um":-12.5e-1,"ground_width_um":0,"spacing_um":123456789012345678901234567890}]}`,
		"{\"segments\":[{\"shielding\":\"cöplanar ✓\"},{\"shielding\":\"\"},{\"shielding\":\"\x7f\"}]}",
		`{"segments":[]}`,
		`{}`,
		string(batchBody64(t)),
	} {
		if !checkScanAgrees(t, []byte(body)) {
			t.Errorf("scanner refused %q", body)
		}
	}
	for reason, body := range map[string]string{
		"null":                  `null`,
		"empty body":            ``,
		"only whitespace":       " \n",
		"non-object":            `[` + scanSeg + `]`,
		"a string":              `"rise_time_ps"`,
		"escape in a value":     `{"segments":[{"shielding":"\u0063oplanar"}]}`,
		"escape in a key":       `{"rise\u005ftime_ps":50}`,
		"case-folded key":       `{"Rise_Time_Ps":50}`,
		"unknown key":           `{"rise_time_ps":50,"bogus":1}`,
		"duplicate key":         `{"rise_time_ps":50,"rise_time_ps":50}`,
		"duplicate segment key": `{"segments":[{"length_um":1,"length_um":1}]}`,
		"out-of-range number":   `{"rise_time_ps":1e400}`,
		"BOM":                   "\xef\xbb\xbf{}",
		"trailing data":         `{"rise_time_ps":50} x`,
		"second value":          `{}{}`,
		"unclosed object":       `{"rise_time_ps":50`,
		"trailing comma":        `{"rise_time_ps":50,}`,
		"null number":           `{"rise_time_ps":null}`,
		"null string":           `{"check":null}`,
		"null segments":         `{"segments":null}`,
		"null segment":          `{"segments":[null]}`,
		"string for a number":   `{"rise_time_ps":"50"}`,
		"number for a string":   `{"check":1}`,
		"leading zero":          `{"rise_time_ps":050}`,
		"leading plus":          `{"rise_time_ps":+50}`,
		"bare fraction":         `{"rise_time_ps":.5}`,
		"empty fraction":        `{"rise_time_ps":5.}`,
		"empty exponent":        `{"rise_time_ps":5e}`,
		"hex number":            `{"rise_time_ps":0x10}`,
		"Inf":                   `{"rise_time_ps":Infinity}`,
		"control byte":          "{\"check\":\"a\x01b\"}",
		"invalid UTF-8":         "{\"check\":\"\xff\"}",
		"surrogate in UTF-8":    "{\"check\":\"\xed\xa0\x80\"}",
		"unterminated string":   `{"check":"warn`,
		"non-breaking space":    "{ }",
	} {
		if checkScanAgrees(t, []byte(body)) {
			t.Errorf("%s: scanner accepted %q", reason, body)
		}
	}
}

// A body encoding/json accepts but the scanner refuses gets exactly the
// status and response body of its canonical spelling, which the
// scanner decodes.
func TestScannerRefusalsAnswerAsTheirCanonicalSpelling(t *testing.T) {
	s := newTestServer(t)
	const micro = `{"length_um":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5,"shielding":"microstrip"}`
	for name, tc := range map[string]struct{ body, canonical string }{
		"case-folded key": {
			`{"Rise_Time_PS":50,"segments":[` + scanSeg + `]}`,
			`{"rise_time_ps":50,"segments":[` + scanSeg + `]}`,
		},
		"escaped shielding": {
			`{"rise_time_ps":50,"segments":[{"length_um":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5,"shielding":"\u0063oplanar"}]}`,
			`{"rise_time_ps":50,"segments":[{"length_um":500,"signal_width_um":2,"ground_width_um":2,"spacing_um":1.5,"shielding":"coplanar"}]}`,
		},
		"duplicate key": {
			`{"rise_time_ps":10,"rise_time_ps":50,"segments":[` + scanSeg + `]}`,
			`{"rise_time_ps":50,"segments":[` + scanSeg + `]}`,
		},
		// encoding/json decodes a repeated array into the elements the
		// first one left, so the second segment inherits "microstrip".
		"duplicate segments": {
			`{"rise_time_ps":50,"segments":[` + micro + `],"segments":[` + scanSeg + `]}`,
			`{"rise_time_ps":50,"segments":[` + micro + `]}`,
		},
		"null check": {
			`{"rise_time_ps":50,"check":null,"segments":[` + scanSeg + `]}`,
			`{"rise_time_ps":50,"segments":[` + scanSeg + `]}`,
		},
		"null segments": {
			`{"rise_time_ps":50,"segments":null}`,
			`{"rise_time_ps":50}`,
		},
		"null segment": {
			`{"rise_time_ps":50,"segments":[null]}`,
			`{"rise_time_ps":50,"segments":[{}]}`,
		},
	} {
		var req BatchRequest
		if scanBatch([]byte(tc.body), &req) {
			t.Fatalf("%s: scanner accepted %s", name, tc.body)
		}
		if !scanBatch([]byte(tc.canonical), &req) {
			t.Fatalf("%s: scanner refused the canonical %s", name, tc.canonical)
		}
		got, want := serveRaw(s, "/v1/batch", []byte(tc.body)), serveRaw(s, "/v1/batch", []byte(tc.canonical))
		if got.Code != want.Code || !bytes.Equal(got.Body.Bytes(), want.Body.Bytes()) {
			t.Errorf("%s: %d %s, but the canonical spelling gets %d %s",
				name, got.Code, got.Body.Bytes(), want.Code, want.Body.Bytes())
		}
	}
}

var (
	allocSinkReq *http.Request
	allocSinkRec *httptest.ResponseRecorder
)

// Decoding a 64-segment body allocates a handful of times on top of the
// httptest request and recorder: the body buffer, its reader and the
// segments slice as it grows. encoding/json made about 91.
func TestBatchDecodeAllocations(t *testing.T) {
	body := batchBody64(t)
	harness := testing.AllocsPerRun(50, func() {
		allocSinkReq = httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
		allocSinkRec = httptest.NewRecorder()
	})
	total := testing.AllocsPerRun(50, func() {
		r := httptest.NewRequest(http.MethodPost, "/v1/batch", bytes.NewReader(body))
		var req BatchRequest
		if !decodeJSON(httptest.NewRecorder(), r, &req) || len(req.Segments) != 64 {
			t.Fatalf("decode refused the body or lost segments (%d)", len(req.Segments))
		}
	})
	t.Logf("harness %.0f allocations, decode %.0f beyond it", harness, total-harness)
	if got := total - harness; got > 16 {
		t.Errorf("decoding a 64-segment body allocates %.0f times beyond the harness's %.0f, want at most 16", got, harness)
	}
}
