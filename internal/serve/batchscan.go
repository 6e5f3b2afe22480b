package serve

import (
	"bytes"
	"strconv"
	"unicode/utf8"
)

// scanBatch decodes a /v1/batch body into req in one pass over its
// bytes, without encoding/json's reflection, and reports whether it
// did. It accepts only a form that encoding/json (with
// DisallowUnknownFields and the trailing-data check) provably decodes
// to the same struct:
//
//   - JSON whitespace (space, tab, LF, CR) between tokens;
//   - a top-level object, and an array of objects under "segments";
//     every key byte-equal to a struct tag (no escape, no case
//     folding) and present at most once per object, in any order;
//   - numbers in JSON's grammar that strconv.ParseFloat(…, 64) parses
//     without error, the call encoding/json makes, so the bits agree;
//   - strings with no backslash, no byte below 0x20, and valid UTF-8,
//     which encoding/json copies byte for byte;
//   - nothing but whitespace after the object.
//
// Any other body (null, an escape, a folded, unknown or repeated key,
// a number ParseFloat refuses, a BOM, trailing data, an empty body, a
// non-object) leaves req zeroed and returns false, and the caller
// decodes the same bytes with encoding/json, so every refusal keeps
// its status and message.
func scanBatch(body []byte, req *BatchRequest) bool {
	s := scanner{b: body}
	if !s.batch(req) {
		*req = BatchRequest{}
		return false
	}
	return true
}

// scanner is a cursor over a request body.
type scanner struct {
	b []byte
	i int
}

// skip moves past JSON whitespace.
func (s *scanner) skip() {
	i := s.i
	for i < len(s.b) && (s.b[i] == ' ' || s.b[i] == '\t' || s.b[i] == '\n' || s.b[i] == '\r') {
		i++
	}
	s.i = i
}

// consume moves past whitespace and then c, and reports whether c was
// there.
func (s *scanner) consume(c byte) bool {
	s.skip()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// end reports whether only whitespace is left.
func (s *scanner) end() bool {
	s.skip()
	return s.i == len(s.b)
}

// object reads an object, handing each key to field, which reads the
// key's value and returns whether it decoded and the key's bit in a set
// of at most eight (0: not a key of the object). A key given twice
// refuses, as does an unknown one.
func (s *scanner) object(field func(key []byte) (uint8, bool)) bool {
	if !s.consume('{') {
		return false
	}
	if s.consume('}') {
		return true
	}
	var seen uint8
	for {
		key, ok := s.str()
		if !ok || !s.consume(':') {
			return false
		}
		bit, ok := field(key)
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if s.consume(',') {
			continue
		}
		return s.consume('}')
	}
}

// batch reads the top-level object and what follows it.
func (s *scanner) batch(req *BatchRequest) bool {
	ok := s.object(func(key []byte) (bit uint8, ok bool) {
		switch string(key) {
		case "rise_time_ps":
			req.RiseTimePs, ok = s.number()
			return 1, ok
		case "check":
			req.Check, ok = s.text()
			return 2, ok
		case "lookup_policy":
			req.LookupPolicy, ok = s.text()
			return 4, ok
		case "timeout_ms":
			req.TimeoutMs, ok = s.number()
			return 8, ok
		case "segments":
			req.Segments, ok = s.segments()
			return 16, ok
		}
		return 0, false
	})
	return ok && s.end()
}

// segments reads an array of segment objects; [] is an empty, non-nil
// slice, as encoding/json makes it.
func (s *scanner) segments() ([]SegmentRequest, bool) {
	if !s.consume('[') {
		return nil, false
	}
	segs := []SegmentRequest{}
	if s.consume(']') {
		return segs, true
	}
	for {
		segs = append(segs, SegmentRequest{})
		if !s.segment(&segs[len(segs)-1]) {
			return nil, false
		}
		if s.consume(',') {
			continue
		}
		return segs, s.consume(']')
	}
}

// segment reads one segment object.
func (s *scanner) segment(sr *SegmentRequest) bool {
	return s.object(func(key []byte) (bit uint8, ok bool) {
		switch string(key) {
		case "length_um":
			sr.LengthUm, ok = s.number()
			return 1, ok
		case "signal_width_um":
			sr.SignalWidthUm, ok = s.number()
			return 2, ok
		case "ground_width_um":
			sr.GroundWidthUm, ok = s.number()
			return 4, ok
		case "spacing_um":
			sr.SpacingUm, ok = s.number()
			return 8, ok
		case "shielding":
			sr.Shielding, ok = s.text()
			return 16, ok
		}
		return 0, false
	})
}

// str reads a string with no backslash and no byte below 0x20 that is
// valid UTF-8, and returns its contents, which alias the body.
func (s *scanner) str() ([]byte, bool) {
	if !s.consume('"') {
		return nil, false
	}
	n := bytes.IndexByte(s.b[s.i:], '"')
	if n < 0 {
		return nil, false
	}
	v := s.b[s.i : s.i+n]
	s.i += n + 1
	ascii := true
	for _, c := range v {
		if c == '\\' || c < 0x20 {
			return nil, false
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	return v, ascii || utf8.Valid(v)
}

// text reads a string value. The known shieldings come back as
// constants, so the usual request allocates no string.
func (s *scanner) text() (string, bool) {
	v, ok := s.str()
	if !ok {
		return "", false
	}
	switch string(v) {
	case "coplanar":
		return "coplanar", true
	case "microstrip":
		return "microstrip", true
	case "stripline":
		return "stripline", true
	}
	return string(v), true
}

// number reads -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)? and
// parses it as encoding/json does; a number ParseFloat refuses (out of
// range) is refused.
func (s *scanner) number() (float64, bool) {
	s.skip()
	b, j := s.b, s.i
	if j < len(b) && b[j] == '-' {
		j++
	}
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && '1' <= b[j] && b[j] <= '9':
		j = digits(b, j+1)
	default:
		return 0, false
	}
	if j < len(b) && b[j] == '.' {
		if j++; j == len(b) || !isDigit(b[j]) {
			return 0, false
		}
		j = digits(b, j+1)
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		if j++; j < len(b) && (b[j] == '+' || b[j] == '-') {
			j++
		}
		if j == len(b) || !isDigit(b[j]) {
			return 0, false
		}
		j = digits(b, j+1)
	}
	f, err := strconv.ParseFloat(string(b[s.i:j]), 64)
	s.i = j
	return f, err == nil
}

// digits returns the index of the first non-digit at or after j.
func digits(b []byte, j int) int {
	for j < len(b) && isDigit(b[j]) {
		j++
	}
	return j
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }
