package dataset

import "strconv"

// Scanner is a strict single-pass reader over one JSON document held in
// memory. It serves the fast decoders of the instance format, the server's
// state snapshot and the registration bodies: flat objects of known keys,
// numbers and arrays of them. Its rule is to recognise only what it can
// decode exactly as encoding/json would, and to bail on everything else —
// escapes, strings, null (except where a caller accepts it for a slice),
// unknown or case-variant keys, a repeated key, numbers outside the JSON
// grammar or outside the Go type's range, trailing data. Every method
// reports false when the input is not exactly what it expects; false means
// "let the strict json.Decoder decide", never "invalid", so a fast decoder
// built on it changes no observable behaviour and no error text.
type Scanner struct {
	b []byte
	i int
}

// NewScanner returns a scanner positioned at the start of b.
func NewScanner(b []byte) *Scanner { return &Scanner{b: b} }

func (s *Scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// Lit consumes the byte c, after whitespace, and reports whether it was
// there.
func (s *Scanner) Lit(c byte) bool {
	s.ws()
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// Null consumes the literal null, after whitespace, and reports whether it
// was there. encoding/json decodes null into a slice as nil; a caller that
// accepts it does the same.
func (s *Scanner) Null() bool {
	s.ws()
	if len(s.b)-s.i >= 4 && string(s.b[s.i:s.i+4]) == "null" {
		s.i += 4
		return true
	}
	return false
}

// End reports whether only whitespace remains.
func (s *Scanner) End() bool {
	s.ws()
	return s.i == len(s.b)
}

// number consumes one token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, and returns it.
func (s *Scanner) number() ([]byte, bool) {
	s.ws()
	start := s.i
	if s.i < len(s.b) && s.b[s.i] == '-' {
		s.i++
	}
	switch {
	case s.i < len(s.b) && s.b[s.i] == '0':
		s.i++
	case s.digits() == 0:
		return nil, false
	}
	if s.i < len(s.b) && s.b[s.i] == '.' {
		s.i++
		if s.digits() == 0 {
			return nil, false
		}
	}
	if s.i < len(s.b) && (s.b[s.i] == 'e' || s.b[s.i] == 'E') {
		s.i++
		if s.i < len(s.b) && (s.b[s.i] == '+' || s.b[s.i] == '-') {
			s.i++
		}
		if s.digits() == 0 {
			return nil, false
		}
	}
	return s.b[start:s.i], true
}

// digits consumes a run of decimal digits and returns its length.
func (s *Scanner) digits() int {
	start := s.i
	for s.i < len(s.b) && s.b[s.i] >= '0' && s.b[s.i] <= '9' {
		s.i++
	}
	return s.i - start
}

// Float consumes a number into a float64 through strconv.ParseFloat, as
// encoding/json does, so the value is bit-identical; a number out of
// float64 range (1e999) bails.
func (s *Scanner) Float() (float64, bool) {
	tok, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(tok), 64)
	return f, err == nil
}

// ScanInt consumes an integer literal into *dst. A fraction or exponent
// (2.0, 1e0) bails, as does a value outside T's range: encoding/json rejects
// all three for integer fields. Parsing at 64 bits and requiring the value
// to survive the conversion to T is strconv.ParseInt at T's bit size.
func ScanInt[T ~int | ~int32](s *Scanner, dst *T) bool {
	tok, ok := s.number()
	if !ok {
		return false
	}
	v, err := strconv.ParseInt(string(tok), 10, 64)
	*dst = T(v)
	return err == nil && int64(*dst) == v
}

// Object consumes one object whose keys all come from keys, each at most
// once (keys holds at most 64 names). For every member it calls field with
// the key's index once the colon is consumed; field must consume the value
// and report whether it recognised it.
func (s *Scanner) Object(keys []string, field func(k int) bool) bool {
	if !s.Lit('{') {
		return false
	}
	if s.Lit('}') {
		return true
	}
	var seen uint64
	next := 0
	for {
		k, ok := s.key(keys, next)
		if !ok || seen&(1<<k) != 0 || !s.Lit(':') || !field(k) {
			return false
		}
		seen |= 1 << k
		next = k + 1
		if !s.Lit(',') {
			return s.Lit('}')
		}
	}
}

// key consumes a quoted key with no escape sequence and returns its index
// in keys. Writers emit the keys in order, so keys[hint] is tried first.
func (s *Scanner) key(keys []string, hint int) (int, bool) {
	if !s.Lit('"') {
		return 0, false
	}
	start := s.i
	for s.i < len(s.b) && s.b[s.i] != '"' {
		if s.b[s.i] == '\\' {
			return 0, false
		}
		s.i++
	}
	if s.i == len(s.b) {
		return 0, false
	}
	k := s.b[start:s.i]
	s.i++
	if hint < len(keys) && string(k) == keys[hint] {
		return hint, true
	}
	for j, key := range keys {
		if string(k) == key {
			return j, true
		}
	}
	return 0, false
}

// Array consumes one array, calling elem to consume each element.
func (s *Scanner) Array(elem func() bool) bool {
	if !s.Lit('[') {
		return false
	}
	if s.Lit(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if !s.Lit(',') {
			return s.Lit(']')
		}
	}
}

// ScanInts consumes an array of integers (skills, task and worker IDs),
// appending them to dst.
func ScanInts[T ~int | ~int32](s *Scanner, dst []T) ([]T, bool) {
	ok := s.Array(func() bool {
		var v T
		ok := ScanInt(s, &v)
		dst = append(dst, v)
		return ok
	})
	return dst, ok
}
