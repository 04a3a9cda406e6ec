package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"

	"github.com/quicknn/quicknn"
)

// oracleFrame is the /v1/frame body as encoding/json decodes it, the
// reference the one-pass decoder is checked against.
type oracleFrame struct {
	Points [][3]float32 `json:"points"`
}

// oracleDecode reports what json.Unmarshal makes of body, and whether
// the decoder must accept it: Unmarshal accepts it and every value of a
// key folding to "points" is null or an array of exactly-three-number
// triples.
func oracleDecode(body []byte) ([][3]float32, bool) {
	var f oracleFrame
	if json.Unmarshal(body, &f) != nil {
		return nil, false
	}
	dec := json.NewDecoder(bytes.NewReader(body))
	if tok, _ := dec.Token(); tok == nil {
		return nil, true // top-level null
	}
	for dec.More() {
		key, _ := dec.Token()
		var raw json.RawMessage
		if err := dec.Decode(&raw); err != nil {
			return nil, false
		}
		if strings.EqualFold(key.(string), "points") && !wellFormedTriples(raw) {
			return nil, false
		}
	}
	return f.Points, true
}

// wellFormedTriples reports whether raw is null or an array whose every
// element is an array of exactly three numbers.
func wellFormedTriples(raw json.RawMessage) bool {
	var elems []json.RawMessage
	if json.Unmarshal(raw, &elems) != nil {
		return false
	}
	for _, e := range elems {
		var coords []json.RawMessage
		if json.Unmarshal(e, &coords) != nil || len(coords) != 3 {
			return false
		}
		for _, c := range coords {
			if c[0] != '-' && (c[0] < '0' || c[0] > '9') {
				return false
			}
		}
	}
	return true
}

// decodeBody runs the frame decoder over an in-memory body.
func decodeBody(body []byte) ([]quicknn.Point, error) {
	return new(frameDecoder).decode(bytes.NewReader(body), int64(len(body)))
}

// checkAgainstOracle fails t when the decoder's verdict or points differ
// from the oracle's, bit for bit.
func checkAgainstOracle(t *testing.T, body []byte) {
	t.Helper()
	want, ok := oracleDecode(body)
	got, err := decodeBody(body)
	if (err == nil) != ok {
		t.Fatalf("body %q: decoder error %v, oracle accepts %v", body, err, ok)
	}
	if !ok {
		return
	}
	if len(got) != len(want) {
		t.Fatalf("body %q: %d points, oracle %d", body, len(got), len(want))
	}
	for i, w := range want {
		g := [3]float32{got[i].X, got[i].Y, got[i].Z}
		for a := range w {
			if math.Float32bits(g[a]) != math.Float32bits(w[a]) {
				t.Fatalf("body %q point %d: %v, oracle %v", body, i, g, w)
			}
		}
	}
}

// frameBodySeeds are the decoder's table cases and fuzz seeds: the
// canonical shape, key spellings, unknown fields, whitespace, duplicate
// keys, special numbers, malformed triples and trailing data.
var frameBodySeeds = []string{
	`{"points":[[1,2,3],[4.5,-6.25,7e2]]}`,
	`{"points":[]}`,
	`{"points":null}`,
	`{}`,
	`null`,
	` {"points" : [ [ 1 , 2 , 3 ] ] } ` + "\n\t\r",
	`{"Points":[[1,2,3]]}`,
	`{"POINTS":[[1,2,3]]}`,
	`{"pointſ":[[1,2,3]]}`,
	`{"points":[[1,2,3]]}`,
	`{"points":[[1,2,3]],"😀":1,"\ud800x":2}`,
	`{"p\u006fints":[[1,2,3]]}`,
	`{"\u0050OINT\u017f":[[1,2,3]]}`,
	`{"points\ud83d\ude00":[[1]],"\"points\"":[[1]],"points\/":[[1]],"points":[[1,2,3]]}`,
	`{"p\u00":[[1,2,3]]}`,
	`{"point":[[1,2,3]],"pointss":[[1]]}`,
	`{"id":"a\"b\\c\/\b\f\n\r\té","meta":{"a":[1,{"b":null}],"c":true,"d":false},"n":-0.5e-3,"points":[[1,2,3]]}`,
	`{"points":[[1,2,3]],"points":[[4,5,6],[7,8,9]]}`,
	`{"points":[[1,2,3]],"POINTS":null}`,
	`{"points":[[1,2]],"points":[[1,2,3]]}`,
	`{"points":[[-0,0,-0.0]]}`,
	`{"points":[[1e-45,1.4e-45,-1e-40]]}`,
	`{"points":[[1e-50,3.4028234e38,-3.4028235e38]]}`,
	`{"points":[[1e39,0,0]]}`,
	`{"points":[[1,2]]}`,
	`{"points":[[1,2,3,4]]}`,
	`{"points":[null]}`,
	`{"points":[[1,null,3]]}`,
	`{"points":[["1",2,3]]}`,
	`{"points":[[1,2,3],]}`,
	`{"points":[[01,2,3]]}`,
	`{"points":[[1.,2,3]]}`,
	`{"points":[[+1,2,3]]}`,
	`{"points":[[1,2,3]]} x`,
	`{"points":[[1,2,3]]}{}`,
	`{"points":{"x":1}}`,
	`{"points":"[[1,2,3]]"}`,
	`{"points":[[1,2,3]],}`,
	`{"a":1 "points":[]}`,
	`{"a":"` + "\x01" + `"}`,
	`{"a":"\x"}`,
	`{"a":tru}`,
	`[[1,2,3]]`,
	`"points"`,
	``,
	`{"points":[[1,2,3]]`,
}

func TestFrameDecodeMatchesEncodingJSON(t *testing.T) {
	for _, body := range frameBodySeeds {
		checkAgainstOracle(t, []byte(body))
	}
	// encoding/json's nesting limit, just inside and just beyond it.
	for _, depth := range []int{maxNestingDepth - 1, maxNestingDepth} {
		body := `{"a":` + strings.Repeat("[", depth) + strings.Repeat("]", depth) + `,"points":[[1,2,3]]}`
		checkAgainstOracle(t, []byte(body))
	}
}

// FuzzFrameBody is the differential fuzz target: the decoder accepts a
// body exactly when json.Unmarshal does and every triple is well formed,
// and then yields bit-identical points.
func FuzzFrameBody(f *testing.F) {
	for _, body := range frameBodySeeds {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAgainstOracle(t, body)
	})
}

// TestFrameDecodeReadsChunkedBodies checks the unknown-length read path
// against the Content-Length one.
func TestFrameDecodeReadsChunkedBodies(t *testing.T) {
	body := syntheticFrameBody(t, 3000)
	want, err := decodeBody(body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := new(frameDecoder).decode(io.MultiReader(bytes.NewReader(body[:100]), bytes.NewReader(body[100:])), -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) || len(got) != 3000 {
		t.Fatalf("chunked read: %d points, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("point %d: chunked %+v, sized %+v", i, got[i], want[i])
		}
	}
}

// TestFrameDecodeSteadyStateAllocs guards the decoder's allocation
// profile: once its pooled body buffer has grown to a frame's size,
// decoding the next frame allocates only the output points slice.
func TestFrameDecodeSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	body := syntheticFrameBody(t, 2000)
	dec := new(frameDecoder)
	r := bytes.NewReader(body)
	run := func() {
		r.Reset(body)
		pts, err := dec.decode(r, int64(len(body)))
		if err != nil || len(pts) != 2000 {
			t.Fatalf("decode: %d points, %v", len(pts), err)
		}
	}
	run() // grow the body buffer once
	if allocs := testing.AllocsPerRun(20, run); allocs != 1 {
		t.Fatalf("steady-state frame decode: %v allocs/op, want 1 (the output points)", allocs)
	}
}

// TestBodyTooLarge posts limit+1 bytes to both body-carrying endpoints,
// with and without a Content-Length: each answers 413 too_large. A body
// of exactly the limit is read and judged on its content.
func TestBodyTooLarge(t *testing.T) {
	_, ts := newTestServer(t)
	over := bytes.Repeat([]byte(" "), maxBodyBytes+1)
	at := append(bytes.Repeat([]byte(" "), maxBodyBytes-2), "{}"...)
	for _, path := range []string{"/v1/frame", "/v1/search", "/frame"} {
		for _, chunked := range []bool{false, true} {
			for _, tc := range []struct {
				body   []byte
				status int
			}{{over, http.StatusRequestEntityTooLarge}, {at, 0}} {
				var rd io.Reader = bytes.NewReader(tc.body)
				if chunked {
					rd = io.MultiReader(rd) // hides the length: chunked encoding
				}
				resp, err := http.Post(ts.URL+path, "application/json", rd)
				if err != nil {
					t.Fatalf("POST %s: %v", path, err)
				}
				var env errorResponse
				_ = json.NewDecoder(resp.Body).Decode(&env)
				resp.Body.Close()
				switch {
				case tc.status != 0 && (resp.StatusCode != tc.status || env.Code != "too_large"):
					t.Errorf("%s chunked=%v: %d bytes = (%d, %q), want (413, too_large)",
						path, chunked, len(tc.body), resp.StatusCode, env.Code)
				case tc.status == 0 && resp.StatusCode == http.StatusRequestEntityTooLarge:
					t.Errorf("%s chunked=%v: a body of exactly the limit answered 413", path, chunked)
				}
			}
		}
	}
}

// TestMalformedTriplesRejected: a short or long triple, a null triple or
// coordinate, or a coordinate beyond float32 is a 400 bad_request on
// both endpoints — never a silently zero-filled or truncated point.
func TestMalformedTriplesRejected(t *testing.T) {
	_, ts := newTestServer(t)
	ingestFrame(t, ts, 300, 1)
	for _, triples := range []string{`[[1,2]]`, `[[1,2,3,4]]`, `[null]`, `[[1,null,3]]`, `[[1e39,0,0]]`} {
		for _, req := range []struct{ path, body string }{
			{"/v1/frame", `{"points":` + triples + `}`},
			{"/v1/search", `{"queries":` + triples + `,"k":2}`},
		} {
			resp, err := http.Post(ts.URL+req.path, "application/json", strings.NewReader(req.body))
			if err != nil {
				t.Fatalf("POST %s: %v", req.path, err)
			}
			var env errorResponse
			_ = json.NewDecoder(resp.Body).Decode(&env)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || env.Code != "bad_request" {
				t.Errorf("%s %s = (%d, %q), want (400, bad_request)", req.path, req.body, resp.StatusCode, env.Code)
			}
		}
	}
}

// syntheticFrameBody is a canonical /v1/frame body of an n-point
// synthetic LiDAR frame, encoded by encoding/json.
func syntheticFrameBody(tb testing.TB, n int) []byte {
	tb.Helper()
	body, err := json.Marshal(frameRequest{Points: quicknn.SyntheticFrames(n, 1, 1)[0]})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// decodedPoints keeps the benchmarked decodes observable.
var decodedPoints int

// BenchmarkFrameDecode measures /v1/frame body decoding on a 30k-point
// frame: the one-pass decoder in steady state (its body buffer grown by
// a warm-up decode), and encoding/json's reflection decode it replaced.
func BenchmarkFrameDecode(b *testing.B) {
	body := syntheticFrameBody(b, 30000)
	b.Run("onepass", func(b *testing.B) {
		dec := new(frameDecoder)
		r := bytes.NewReader(body)
		if _, err := dec.decode(r, int64(len(body))); err != nil {
			b.Fatal(err)
		}
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			r.Reset(body)
			pts, err := dec.decode(r, int64(len(body)))
			if err != nil {
				b.Fatal(err)
			}
			decodedPoints = len(pts)
		}
	})
	b.Run("encoding_json", func(b *testing.B) {
		b.SetBytes(int64(len(body)))
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			var f oracleFrame
			if err := json.NewDecoder(bytes.NewReader(body)).Decode(&f); err != nil {
				b.Fatal(err)
			}
			decodedPoints = len(f.Points)
		}
	})
}
