package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/obs"
	"github.com/quicknn/quicknn/internal/serve"
)

func newTestServer(t *testing.T) (*server, *httptest.Server) {
	t.Helper()
	sink := obs.NewSink("quicknnd-test")
	sink.Flight = obs.NewFlightRecorder(128)
	engine := serve.NewEngine(serve.Config{Obs: sink})
	t.Cleanup(func() { _ = engine.Close(context.Background()) })
	s := &server{engine: engine, sink: sink}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url string, body interface{}) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(body)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, buf.Bytes()
}

func ingestFrame(t *testing.T, ts *httptest.Server, n int, tag float32) frameResponse {
	t.Helper()
	pts := make(wirePoints, n)
	for i := range pts {
		pts[i] = quicknn.Point{X: float32(i % 97), Y: float32(i % 89), Z: tag}
	}
	resp, body := postJSON(t, ts.URL+"/frame", frameRequest{Points: pts})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/frame = %d: %s", resp.StatusCode, body)
	}
	var fr frameResponse
	if err := json.Unmarshal(body, &fr); err != nil {
		t.Fatalf("frame response: %v", err)
	}
	return fr
}

func TestHealthzGatesOnFirstFrame(t *testing.T) {
	_, ts := newTestServer(t)
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/healthz before first frame = %d, want 503", resp.StatusCode)
	}
	ingestFrame(t, ts, 500, 1)
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatalf("GET /healthz: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/healthz after first frame = %d, want 200", resp.StatusCode)
	}
}

func TestFrameThenSearchRoundTrip(t *testing.T) {
	_, ts := newTestServer(t)
	fr := ingestFrame(t, ts, 800, 3)
	if fr.Epoch != 1 || fr.Points != 800 {
		t.Fatalf("frame response %+v, want epoch 1 with 800 points", fr)
	}
	resp, body := postJSON(t, ts.URL+"/search", searchRequest{
		Queries: wirePoints{{X: 1, Y: 2, Z: 3}, {X: 50, Y: 40, Z: 3}},
		K:       4,
		Mode:    "exact",
	})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/search = %d: %s", resp.StatusCode, body)
	}
	var sr searchResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		t.Fatalf("search response: %v", err)
	}
	if sr.Epoch != 1 || len(sr.Results) != 2 {
		t.Fatalf("search response epoch=%d results=%d, want epoch 1 with 2 results", sr.Epoch, len(sr.Results))
	}
	for qi, nbrs := range sr.Results {
		if len(nbrs) != 4 {
			t.Fatalf("query %d: %d neighbors, want 4", qi, len(nbrs))
		}
		for _, nb := range nbrs {
			if nb.Point[2] != 3 {
				t.Fatalf("query %d: neighbor from tag %g, want 3", qi, nb.Point[2])
			}
		}
	}
}

func TestSearchBeforeFrameIsUnavailable(t *testing.T) {
	_, ts := newTestServer(t)
	resp, body := postJSON(t, ts.URL+"/search", searchRequest{Queries: wirePoints{{X: 1, Y: 1, Z: 1}}})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("/search before frame = %d (%s), want 503", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("503 response missing Retry-After header")
	}
}

func TestBadRequestsMapTo400(t *testing.T) {
	_, ts := newTestServer(t)
	ingestFrame(t, ts, 300, 1)
	for name, req := range map[string]searchRequest{
		"unknown mode": {Queries: wirePoints{{X: 1, Y: 1, Z: 1}}, Mode: "psychic"},
		"negative k":   {Queries: wirePoints{{X: 1, Y: 1, Z: 1}}, K: -2},
	} {
		resp, body := postJSON(t, ts.URL+"/search", req)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: /search = %d (%s), want 400", name, resp.StatusCode, body)
		}
		var er errorResponse
		if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
			t.Errorf("%s: error body %q not a JSON error", name, body)
		}
	}
	// Malformed JSON bodies are 400 too.
	resp, err := http.Post(ts.URL+"/frame", "application/json", bytes.NewReader([]byte("{nope")))
	if err != nil {
		t.Fatalf("POST /frame: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed /frame body = %d, want 400", resp.StatusCode)
	}
	// Empty frames surface the typed empty-input error as 400.
	resp2, body := postJSON(t, ts.URL+"/frame", frameRequest{})
	if resp2.StatusCode != http.StatusBadRequest {
		t.Errorf("empty /frame = %d (%s), want 400", resp2.StatusCode, body)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t)
	for _, path := range []string{"/frame", "/search"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("GET %s = %d, want 405", path, resp.StatusCode)
		}
	}
}

func TestMetricsExposition(t *testing.T) {
	_, ts := newTestServer(t)
	ingestFrame(t, ts, 400, 1)
	postJSON(t, ts.URL+"/search", searchRequest{Queries: wirePoints{{X: 1, Y: 1, Z: 1}}, K: 2})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("read metrics: %v", err)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/plain; version=0.0.4" {
		t.Errorf("Content-Type = %q, want Prometheus text 0.0.4", ct)
	}
	for _, fam := range []string{
		"quicknn_serve_batch_size",
		"quicknn_serve_latency_seconds",
		"quicknn_serve_epoch_live",
	} {
		if !bytes.Contains(buf.Bytes(), []byte(fam)) {
			t.Errorf("/metrics scrape missing family %s", fam)
		}
	}
}

func TestMetricsRuntimeAndExemplars(t *testing.T) {
	_, ts := newTestServer(t)
	ingestFrame(t, ts, 400, 1)
	postJSON(t, ts.URL+"/search", searchRequest{Queries: wirePoints{{X: 1, Y: 1, Z: 1}}, K: 2})

	// Plain scrape: runtime gauges sampled at scrape time.
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	for _, fam := range []string{"quicknn_go_heap_alloc_bytes", "quicknn_go_goroutines", "quicknn_go_gc_total"} {
		if !bytes.Contains(buf.Bytes(), []byte(fam)) {
			t.Errorf("/metrics scrape missing runtime gauge %s", fam)
		}
	}

	// OpenMetrics scrape: exemplars plus the EOF terminator.
	resp, err = http.Get(ts.URL + "/metrics?exemplars=1")
	if err != nil {
		t.Fatalf("GET /metrics?exemplars=1: %v", err)
	}
	buf.Reset()
	buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/openmetrics-text; version=1.0.0; charset=utf-8" {
		t.Errorf("Content-Type = %q, want OpenMetrics", ct)
	}
	if !bytes.HasSuffix(buf.Bytes(), []byte("# EOF\n")) {
		t.Error("OpenMetrics exposition missing # EOF terminator")
	}
	if !bytes.Contains(buf.Bytes(), []byte(`# {request_id="`)) {
		t.Error("OpenMetrics exposition carries no exemplars")
	}
}

func TestDebugFlightRecorderEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	ingestFrame(t, ts, 500, 2)
	for i := 0; i < 3; i++ {
		postJSON(t, ts.URL+"/search", searchRequest{Queries: wirePoints{{X: 1, Y: 1, Z: 2}, {X: 5, Y: 5, Z: 2}}, K: 3})
	}

	resp, err := http.Get(ts.URL + "/debug/quicknn/flightrecorder")
	if err != nil {
		t.Fatalf("GET flightrecorder: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("flightrecorder = %d, want 200", resp.StatusCode)
	}
	var fl flightResponse
	if err := json.NewDecoder(resp.Body).Decode(&fl); err != nil {
		t.Fatalf("flightrecorder body: %v", err)
	}
	if fl.Capacity != 128 || fl.Total != 3 || fl.Dropped != 0 || len(fl.Records) != 3 {
		t.Fatalf("flightrecorder = capacity %d, total %d, dropped %d, %d records; want (128, 3, 0, 3)",
			fl.Capacity, fl.Total, fl.Dropped, len(fl.Records))
	}
	for i, rec := range fl.Records {
		if rec.ID == 0 || rec.Epoch != 1 || rec.Queries != 2 || rec.K != 3 || rec.Total <= 0 {
			t.Errorf("record %d malformed: %+v", i, rec)
		}
	}
	// Newest first: ids descend.
	if fl.Records[0].ID < fl.Records[2].ID {
		t.Errorf("records not newest-first: ids %d..%d", fl.Records[0].ID, fl.Records[2].ID)
	}
}

func TestDebugSlowLogEndpoint(t *testing.T) {
	_, ts := newTestServer(t)
	ingestFrame(t, ts, 300, 1)
	postJSON(t, ts.URL+"/search", searchRequest{Queries: wirePoints{{X: 1, Y: 1, Z: 1}}, K: 2})

	resp, err := http.Get(ts.URL + "/debug/quicknn/slowlog")
	if err != nil {
		t.Fatalf("GET slowlog: %v", err)
	}
	defer resp.Body.Close()
	var sl slowlogResponse
	if err := json.NewDecoder(resp.Body).Decode(&sl); err != nil {
		t.Fatalf("slowlog body: %v", err)
	}
	if sl.TailQuantile != 0.99 {
		t.Errorf("tail_quantile = %v, want 0.99", sl.TailQuantile)
	}
	if sl.TailEstimateSeconds <= 0 {
		t.Error("tail estimate never seeded")
	}
	if sl.Records == nil {
		t.Error("records must be an array, not null")
	}
}

func TestStatusForTaxonomy(t *testing.T) {
	for _, tc := range []struct {
		err  error
		want int
	}{
		{serve.ErrOverloaded, http.StatusServiceUnavailable},
		{serve.ErrClosed, http.StatusServiceUnavailable},
		{serve.ErrNoIndex, http.StatusServiceUnavailable},
		{context.DeadlineExceeded, http.StatusGatewayTimeout},
		{context.Canceled, 499},
		{quicknn.ErrEmptyInput, http.StatusBadRequest},
		{quicknn.ErrInvalidOptions, http.StatusBadRequest},
		{quicknn.ErrCorruptIndex, http.StatusInternalServerError},
	} {
		if got := statusFor(tc.err); got != tc.want {
			t.Errorf("statusFor(%v) = %d, want %d", tc.err, got, tc.want)
		}
	}
}
