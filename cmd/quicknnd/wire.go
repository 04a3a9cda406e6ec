package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
	"unsafe"

	"github.com/quicknn/quicknn"
)

// maxBodyBytes bounds every /v1/frame and /v1/search request body. The
// largest documented frame (120k points) is about 4 MB on the wire;
// bodies over the bound answer 413 with code too_large.
const maxBodyBytes = 8 << 20

// maxNestingDepth is encoding/json's nesting limit: the frame decoder
// rejects exactly the bodies encoding/json rejects for depth.
const maxNestingDepth = 10000

// wirePoints is a point list in the wire's [[x,y,z], ...] shape. Every
// triple must hold exactly three JSON numbers that fit float32; a short
// or long triple, or a null in place of a triple or coordinate, is an
// error rather than a silently zero-filled or truncated point.
type wirePoints []quicknn.Point

// UnmarshalJSON parses a triple list (or null) with the same parser the
// /v1/frame decoder uses.
func (p *wirePoints) UnmarshalJSON(b []byte) error {
	s := scanner{b: b}
	if s.literal("null") {
		*p = nil
		return nil
	}
	pts, err := s.points((*p)[:0])
	if err != nil {
		return err
	}
	*p = pts
	return nil
}

// MarshalJSON writes the triple list (clients of the API: the selftest,
// the chaos drive and the tests).
func (p wirePoints) MarshalJSON() ([]byte, error) {
	if p == nil {
		return []byte("null"), nil
	}
	triples := make([][3]float32, len(p))
	for i, q := range p {
		triples[i] = [3]float32{q.X, q.Y, q.Z}
	}
	return json.Marshal(triples)
}

// frameDecoder decodes /v1/frame bodies. It holds the body buffer a
// decode reuses and is pooled, so a steady frame stream allocates only
// each frame's output points.
type frameDecoder struct {
	body []byte
}

var frameDecoders = sync.Pool{New: func() any { return new(frameDecoder) }}

// decode reads a /v1/frame body of the given Content-Length (-1 when
// unknown) and parses it in one pass into a newly allocated point
// slice. It accepts a body exactly when json.Unmarshal into
// frameRequest's shape would, and every triple is well formed; the
// points come out bit-identical. Object keys match "points"
// case-insensitively (after unescaping), unknown fields are skipped with
// their grammar checked, the last of duplicate "points" keys wins, and a
// null or missing "points" yields no points. A body over maxBodyBytes
// fails with *http.MaxBytesError.
func (d *frameDecoder) decode(r io.Reader, contentLength int64) ([]quicknn.Point, error) {
	if err := d.read(r, contentLength); err != nil {
		return nil, err
	}
	// Every triple holds a '[' and takes at least 8 bytes with its
	// separator, so the smaller count bounds the points: the slice is
	// allocated once and never grows.
	pts := make([]quicknn.Point, 0, min(bytes.Count(d.body, []byte{'['}), len(d.body)/8+1))
	s := scanner{b: d.body}
	done := func() ([]quicknn.Point, error) {
		if err := s.end(); err != nil {
			return nil, err
		}
		return pts, nil
	}
	s.ws()
	if s.literal("null") {
		return done()
	}
	if err := s.expect('{'); err != nil {
		return nil, err
	}
	s.ws()
	if s.consume('}') {
		return done()
	}
	for {
		isPoints, err := s.str("points")
		if err != nil {
			return nil, err
		}
		s.ws()
		if err := s.expect(':'); err != nil {
			return nil, err
		}
		s.ws()
		if isPoints {
			if s.literal("null") {
				pts = pts[:0]
			} else if pts, err = s.points(pts[:0]); err != nil {
				return nil, err
			}
		} else if err := s.skip(1); err != nil {
			return nil, err
		}
		s.ws()
		if s.consume('}') {
			return done()
		}
		if err := s.expect(','); err != nil {
			return nil, err
		}
		s.ws()
	}
}

// read fills d.body with the request body, sized from Content-Length
// when the client sent one.
func (d *frameDecoder) read(r io.Reader, contentLength int64) error {
	if contentLength > maxBodyBytes {
		return &http.MaxBytesError{Limit: maxBodyBytes}
	}
	if contentLength >= 0 {
		n := int(contentLength)
		if cap(d.body) < n {
			d.body = make([]byte, n)
		}
		d.body = d.body[:n]
		_, err := io.ReadFull(r, d.body)
		return err
	}
	d.body = d.body[:0]
	for {
		if len(d.body) == cap(d.body) {
			d.body = append(d.body, 0)[:len(d.body)]
		}
		n, err := r.Read(d.body[len(d.body):cap(d.body)])
		d.body = d.body[:len(d.body)+n]
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
	}
}

// scanner walks a JSON text by hand: one pass, no reflection, no
// allocation on success. Its grammar is RFC 8259's, as encoding/json
// checks it.
type scanner struct {
	b []byte
	i int
}

// syntaxError reports a malformed body at the scanner's offset.
func (s *scanner) syntaxError(what string) error {
	if s.i >= len(s.b) {
		return fmt.Errorf("unexpected end of JSON input (%s)", what)
	}
	return fmt.Errorf("invalid character %q at offset %d (%s)", s.b[s.i], s.i, what)
}

// ws skips JSON whitespace.
func (s *scanner) ws() {
	for s.i < len(s.b) {
		switch s.b[s.i] {
		case ' ', '\t', '\n', '\r':
			s.i++
		default:
			return
		}
	}
}

// consume advances past c when it is the next byte.
func (s *scanner) consume(c byte) bool {
	if s.i < len(s.b) && s.b[s.i] == c {
		s.i++
		return true
	}
	return false
}

// expect advances past c or fails.
func (s *scanner) expect(c byte) error {
	if s.consume(c) {
		return nil
	}
	return s.syntaxError(fmt.Sprintf("want %q", c))
}

// literal advances past lit when the text continues with it.
func (s *scanner) literal(lit string) bool {
	if len(s.b)-s.i >= len(lit) && string(s.b[s.i:s.i+len(lit)]) == lit {
		s.i += len(lit)
		return true
	}
	return false
}

// end checks that only whitespace follows the top-level value.
func (s *scanner) end() error {
	s.ws()
	if s.i != len(s.b) {
		return s.syntaxError("after top-level value")
	}
	return nil
}

// number advances past one JSON number and returns its text.
func (s *scanner) number() ([]byte, error) {
	b, i := s.b, s.i
	start := i
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = skipDigits(b, i+1)
	default:
		s.i = i
		return nil, s.syntaxError("in number")
	}
	if i < len(b) && b[i] == '.' {
		if j := skipDigits(b, i+1); j > i+1 {
			i = j
		} else {
			s.i = i + 1
			return nil, s.syntaxError("in number fraction")
		}
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		if j := skipDigits(b, i); j > i {
			i = j
		} else {
			s.i = i
			return nil, s.syntaxError("in number exponent")
		}
	}
	s.i = i
	return b[start:i], nil
}

// skipDigits returns the index just past the run of decimal digits at b[i:].
func skipDigits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

// coordThen parses one coordinate of point pi, exactly as encoding/json
// stores a number into a float32 (strconv.ParseFloat at 32 bits, out of
// range rejected), and the separator that must follow it.
func (s *scanner) coordThen(sep byte, pi int) (float32, error) {
	s.ws()
	num, err := s.number()
	if err != nil {
		return 0, fmt.Errorf("point %d: %w", pi, err)
	}
	// The string view never outlives this call: strconv copies the
	// text into any error it returns.
	f, err := strconv.ParseFloat(unsafe.String(&num[0], len(num)), 32)
	if err != nil {
		return 0, fmt.Errorf("point %d: coordinate %s does not fit float32", pi, num)
	}
	s.ws()
	if !s.consume(sep) {
		return 0, s.syntaxError(fmt.Sprintf("point %d: want exactly three coordinates", pi))
	}
	return float32(f), nil
}

// points parses an array of [x,y,z] triples, appending them to dst.
func (s *scanner) points(dst []quicknn.Point) ([]quicknn.Point, error) {
	if !s.consume('[') {
		return nil, s.syntaxError("want an array of [x,y,z] triples")
	}
	s.ws()
	if s.consume(']') {
		return dst, nil
	}
	for {
		if !s.consume('[') {
			return nil, s.syntaxError(fmt.Sprintf("point %d: want an [x,y,z] triple", len(dst)))
		}
		x, err := s.coordThen(',', len(dst))
		if err != nil {
			return nil, err
		}
		y, err := s.coordThen(',', len(dst))
		if err != nil {
			return nil, err
		}
		z, err := s.coordThen(']', len(dst))
		if err != nil {
			return nil, err
		}
		dst = append(dst, quicknn.Point{X: x, Y: y, Z: z})
		s.ws()
		if s.consume(']') {
			return dst, nil
		}
		if !s.consume(',') {
			return nil, s.syntaxError("after point")
		}
		s.ws()
	}
}

// str advances past a string, checking its grammar, and reports whether
// its unescaped text equals the ASCII string want under Unicode simple
// case folding, as strings.EqualFold compares and encoding/json matches
// field names. Unescaping follows encoding/json: invalid UTF-8 and
// unpaired surrogates become U+FFFD.
func (s *scanner) str(want string) (bool, error) {
	if !s.consume('"') {
		return false, s.syntaxError("want a string")
	}
	n, match := 0, true
	for s.i < len(s.b) {
		var r rune
		switch c := s.b[s.i]; {
		case c == '"':
			s.i++
			return match && n == len(want), nil
		case c < 0x20:
			return false, s.syntaxError("in string")
		case c == '\\':
			var err error
			if r, err = s.escape(); err != nil {
				return false, err
			}
		case c < utf8.RuneSelf:
			r = rune(c)
			s.i++
		default:
			var size int
			r, size = utf8.DecodeRune(s.b[s.i:])
			s.i += size
		}
		if match {
			match = n < len(want) && foldEqual(r, rune(want[n]))
			n++
		}
	}
	return false, s.syntaxError("in string")
}

// foldEqual reports whether r is in m's simple case-folding orbit.
func foldEqual(r, m rune) bool {
	for f := m; ; {
		if f == r {
			return true
		}
		if f = unicode.SimpleFold(f); f == m {
			return false
		}
	}
}

// escape decodes the escape sequence at the scanner (a backslash).
func (s *scanner) escape() (rune, error) {
	s.i++
	if s.i >= len(s.b) {
		return 0, s.syntaxError("in string escape")
	}
	c := s.b[s.i]
	s.i++
	if i := strings.IndexByte(`"\/bfnrt`, c); i >= 0 {
		return rune("\"\\/\b\f\n\r\t"[i]), nil
	}
	if c != 'u' {
		s.i--
		return 0, s.syntaxError("in string escape")
	}
	r, err := s.hex4()
	if err != nil || !utf16.IsSurrogate(r) {
		return r, err
	}
	// A surrogate pairs only with a directly following \u escape.
	if len(s.b)-s.i >= 6 && s.b[s.i] == '\\' && s.b[s.i+1] == 'u' {
		save := s.i
		s.i += 2
		r2, err := s.hex4()
		if err != nil {
			return 0, err
		}
		if dec := utf16.DecodeRune(r, r2); dec != utf8.RuneError {
			return dec, nil
		}
		s.i = save
	}
	return utf8.RuneError, nil
}

// hex4 decodes the four hex digits of a \u escape.
func (s *scanner) hex4() (rune, error) {
	if len(s.b)-s.i < 4 {
		s.i = len(s.b)
		return 0, s.syntaxError("in \\u escape")
	}
	v, err := strconv.ParseUint(string(s.b[s.i:s.i+4]), 16, 16)
	if err != nil {
		return 0, s.syntaxError("in \\u escape")
	}
	s.i += 4
	return rune(v), nil
}

// skip advances past one value nested inside depth containers,
// checking its grammar and encoding/json's nesting limit.
func (s *scanner) skip(depth int) error {
	if s.i >= len(s.b) {
		return s.syntaxError("want a value")
	}
	switch c := s.b[s.i]; {
	case c == '"':
		_, err := s.str("")
		return err
	case c == '-' || ('0' <= c && c <= '9'):
		_, err := s.number()
		return err
	case c == '{' || c == '[':
		if depth++; depth > maxNestingDepth {
			return errors.New("exceeded max depth")
		}
		s.i++
		s.ws()
		closer := byte('}')
		if c == '[' {
			closer = ']'
		}
		if s.consume(closer) {
			return nil
		}
		for {
			if c == '{' {
				if _, err := s.str(""); err != nil {
					return err
				}
				s.ws()
				if err := s.expect(':'); err != nil {
					return err
				}
				s.ws()
			}
			if err := s.skip(depth); err != nil {
				return err
			}
			s.ws()
			if s.consume(closer) {
				return nil
			}
			if err := s.expect(','); err != nil {
				return err
			}
			s.ws()
		}
	case s.literal("true"), s.literal("false"), s.literal("null"):
		return nil
	}
	return s.syntaxError("want a value")
}
