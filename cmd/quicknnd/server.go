package main

import (
	"context"
	cryptorand "crypto/rand"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/degrade"
	"github.com/quicknn/quicknn/internal/obs"
	"github.com/quicknn/quicknn/internal/obs/prof"
	"github.com/quicknn/quicknn/internal/obs/slo"
	"github.com/quicknn/quicknn/internal/serve"
)

// server is the HTTP facade over the serving engine. The wire API is
// versioned under /v1 (docs/serving.md):
//
//	POST /v1/frame    ingest the next frame (epoch advance)
//	POST /v1/search   micro-batched kNN search against the current epoch
//	GET  /v1/metrics  Prometheus text exposition of the obs registry
//	                  (?exemplars=1 switches to OpenMetrics with exemplars)
//	GET  /v1/healthz  liveness: 200 whenever the process can answer HTTP
//	GET  /v1/readyz   readiness: 503 with a reason code on no-index,
//	                  draining, or a shed-level degrade ladder
//	GET  /v1/status   one-stop operational snapshot: uptime, epoch,
//	                  degrade rung, queue, SLO table, active alerts,
//	                  last continuous-profiling captures
//	GET  /v1/alerts   the SLO engine's non-inactive alerts as JSON
//	GET  /v1/debug/quicknn/flightrecorder  newest-first flight-record ring
//	                  (?trace=<32-hex id> filters to one distributed trace)
//	GET  /v1/debug/quicknn/slowlog         tail-sampler promotions + estimate
//
// Correlation: /v1/search accepts a W3C traceparent header (one is
// generated when absent) and echoes the response's traceparent with the
// engine request id as the span id, so a caller can find the request's
// flight record (?trace= filter), latency exemplar, and promoted
// Perfetto span from its own distributed trace (docs/observability.md,
// "Correlation ids").
//
// Every non-2xx reply is the structured error envelope (errorResponse):
// a machine-branchable code, the live retry hint on 503s, and the
// current epoch. The legacy unversioned paths (/frame, /search,
// /metrics, /debug/quicknn/*) are thin aliases of the same handlers and
// answer byte-compatible success bodies; legacy /healthz keeps its
// pre-/v1 combined liveness+readiness behavior. All legacy paths are
// deprecated (docs/serving.md).
//
// See docs/serving.md for the request/response schemas and the error
// taxonomy → (status, code) mapping, docs/robustness.md for the degrade
// ladder surfaced in search replies and readiness, and
// docs/observability.md for the flight-recorder record fields.
type server struct {
	engine *serve.Engine
	sink   *obs.Sink
	// slo is the in-process SLO/burn-rate engine (-slo; nil = disabled).
	slo *slo.Engine
	// prof is the continuous-profiling snapshotter (-profile-dir; nil =
	// disabled).
	prof *prof.Snapshotter
}

// frameRequest is the /v1/frame body. Clients marshal it; the server
// parses it with frameDecoder in one pass, not with encoding/json.
type frameRequest struct {
	// Points is the frame as [x,y,z] triples.
	Points wirePoints `json:"points"`
}

// frameResponse is the /v1/frame reply.
type frameResponse struct {
	Epoch        uint64  `json:"epoch"`
	Points       int     `json:"points"`
	BuildSeconds float64 `json:"build_seconds"`
	BucketMax    int     `json:"bucket_max"`
	BucketMean   float64 `json:"bucket_mean"`
}

// searchRequest is the /v1/search body.
type searchRequest struct {
	// Queries is the query batch as [x,y,z] triples.
	Queries wirePoints `json:"queries"`
	// K is the neighbor count (default 8).
	K int `json:"k"`
	// Mode is one of "approx" (default), "exact", "checks", "radius".
	Mode string `json:"mode"`
	// Checks is the reference-point budget of mode "checks".
	Checks int `json:"checks"`
	// Radius is the radius of mode "radius", meters.
	Radius float64 `json:"radius"`
	// TimeoutMillis bounds the request's time in the engine (0 = none).
	TimeoutMillis int `json:"timeout_ms"`
	// Strict refuses degraded answers: when the degrade ladder is
	// engaged the request fails with code "degraded" instead of being
	// served with clamped budgets (docs/robustness.md).
	Strict bool `json:"strict"`
}

// neighborJSON is one search result.
type neighborJSON struct {
	Index  int        `json:"index"`
	Point  [3]float32 `json:"point"`
	DistSq float64    `json:"dist_sq"`
}

// searchResponse is the /v1/search reply. The degrade fields appear only
// when the admission controller stamped a non-zero ladder level on the
// request, so full-fidelity replies stay byte-compatible with the legacy
// body shape.
type searchResponse struct {
	Epoch   uint64           `json:"epoch"`
	Results [][]neighborJSON `json:"results"`
	// DegradeLevel is the ladder rung the request was admitted at
	// (1..3; shed requests never produce a reply).
	DegradeLevel int `json:"degrade_level,omitempty"`
	// Degrade names the rung ("clamp-checks", "force-checks", "clamp-k").
	Degrade string `json:"degrade,omitempty"`
}

// errorResponse is the /v1 error envelope: every non-2xx JSON body.
// Code is the machine-branchable taxonomy key (see codeFor);
// retry_after_ms is present on every 503 and mirrors the Retry-After
// header with millisecond precision; epoch is the current epoch id
// (omitted before the first frame). The bare-`error` legacy shape is
// deprecated — this envelope is a superset, so legacy clients parsing
// only `error` keep working.
type errorResponse struct {
	Error        string `json:"error"`
	Code         string `json:"code,omitempty"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	Epoch        uint64 `json:"epoch,omitempty"`
}

// flightRecordJSON is one flight record on the wire: the raw record
// plus the derived 32-hex W3C trace id (omitted for untraced requests),
// so operators can grep a dump for the id their tracing system shows.
type flightRecordJSON struct {
	obs.FlightRecord
	Trace string `json:"trace,omitempty"`
}

// wrapRecords derives the wire form of a record snapshot.
func wrapRecords(recs []obs.FlightRecord) []flightRecordJSON {
	out := make([]flightRecordJSON, 0, len(recs))
	for _, rec := range recs {
		rj := flightRecordJSON{FlightRecord: rec}
		if rec.TraceHi != 0 || rec.TraceLo != 0 {
			rj.Trace = obs.TraceID{Hi: rec.TraceHi, Lo: rec.TraceLo}.String()
		}
		out = append(out, rj)
	}
	return out
}

// flightResponse is the /v1/debug/quicknn/flightrecorder reply: ring
// bookkeeping plus the surviving records, newest first.
type flightResponse struct {
	Capacity int                `json:"capacity"`
	Total    uint64             `json:"total"`
	Dropped  uint64             `json:"dropped"`
	Records  []flightRecordJSON `json:"records"`
}

// slowlogResponse is the /v1/debug/quicknn/slowlog reply: the tail
// sampler's state plus the promoted records, newest first.
type slowlogResponse struct {
	TailQuantile        float64            `json:"tail_quantile"`
	TailEstimateSeconds float64            `json:"tail_estimate_seconds"`
	PromotedTotal       uint64             `json:"promoted_total"`
	Records             []flightRecordJSON `json:"records"`
}

// sloStatusJSON is the SLO block of /v1/status: the engine's tick count
// (liveness of the evaluation loop), every objective's table row, and
// the currently non-inactive alerts.
type sloStatusJSON struct {
	Ticks      uint64                `json:"ticks"`
	Objectives []slo.ObjectiveStatus `json:"objectives"`
	Alerts     []slo.AlertStatus     `json:"alerts"`
}

// statusResponse is the /v1/status reply: the one-stop operational
// snapshot (docs/observability.md). SLO and profile blocks appear only
// when the corresponding subsystem is enabled.
type statusResponse struct {
	Status        string         `json:"status"`
	UptimeSeconds float64        `json:"uptime_seconds"`
	Epoch         uint64         `json:"epoch"`
	Draining      bool           `json:"draining"`
	DegradeLevel  int            `json:"degrade_level"`
	Degrade       string         `json:"degrade"`
	QueueDepth    int            `json:"queue_depth"`
	QueueCapacity int            `json:"queue_capacity"`
	SLO           *sloStatusJSON `json:"slo,omitempty"`
	// Profiles maps profile kind (cpu|heap|mutex) to the newest capture's
	// file path in -profile-dir.
	Profiles map[string]string `json:"profiles,omitempty"`
}

// alertsResponse is the /v1/alerts reply. Enabled distinguishes "no SLO
// engine configured" from "engine healthy, nothing alerting"; alerts is
// always an array, never null.
type alertsResponse struct {
	Enabled bool              `json:"enabled"`
	Firing  bool              `json:"firing"`
	Alerts  []slo.AlertStatus `json:"alerts"`
}

// healthzResponse is the /v1/healthz liveness reply: 200 whenever the
// process is up, no matter the index or ladder state.
type healthzResponse struct {
	Status string `json:"status"`
}

// readyzResponse is the /v1/readyz 200 reply; refusals (no_index,
// draining, shed) use the standard error envelope instead.
type readyzResponse struct {
	Status        string `json:"status"`
	Epoch         uint64 `json:"epoch"`
	DegradeLevel  int    `json:"degrade_level"`
	Degrade       string `json:"degrade"`
	QueueDepth    int    `json:"queue_depth"`
	QueueCapacity int    `json:"queue_capacity"`
}

func (s *server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	// /v1 is the versioned wire API; the unversioned paths are thin
	// aliases of the same handlers, kept for legacy clients (deprecated,
	// docs/serving.md).
	for _, prefix := range []string{"/v1", ""} {
		mux.HandleFunc(prefix+"/frame", s.handleFrame)
		mux.HandleFunc(prefix+"/search", s.handleSearch)
		mux.HandleFunc(prefix+"/metrics", s.handleMetrics)
		mux.HandleFunc(prefix+"/debug/quicknn/flightrecorder", s.handleFlightRecorder)
		mux.HandleFunc(prefix+"/debug/quicknn/slowlog", s.handleSlowLog)
	}
	mux.HandleFunc("/v1/healthz", s.handleHealthz)
	mux.HandleFunc("/v1/readyz", s.handleReadyz)
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/v1/alerts", s.handleAlerts)
	// Legacy /healthz predates the liveness/readiness split and keeps
	// its combined behavior (503 until the first frame) byte-for-byte.
	mux.HandleFunc("/healthz", s.handleLegacyHealthz)
	return mux
}

// writeJSON writes v with the given status.
func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

// codeFor maps the engine/root error taxonomy onto the wire contract:
// every typed error maps to exactly one (HTTP status, code) pair — the
// /v1 contract test enumerates this table exhaustively. Ordering
// matters only for readability; the sentinels are disjoint.
func codeFor(err error) (int, string) {
	switch {
	case errors.Is(err, serve.ErrShed):
		return http.StatusServiceUnavailable, "shed"
	case errors.Is(err, serve.ErrDegraded):
		return http.StatusServiceUnavailable, "degraded"
	case errors.Is(err, serve.ErrOverloaded):
		return http.StatusServiceUnavailable, "overloaded"
	case errors.Is(err, serve.ErrClosed):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, serve.ErrNoIndex):
		return http.StatusServiceUnavailable, "no_index"
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, "timeout"
	case errors.Is(err, context.Canceled):
		return 499, "canceled" // client closed request (nginx convention)
	case errors.Is(err, quicknn.ErrEmptyInput):
		return http.StatusBadRequest, "empty_input"
	case errors.Is(err, quicknn.ErrInvalidOptions), errors.Is(err, quicknn.ErrInvalidPoint):
		return http.StatusBadRequest, "bad_request"
	case errors.As(err, new(*http.MaxBytesError)):
		return http.StatusRequestEntityTooLarge, "too_large"
	case errors.Is(err, quicknn.ErrCorruptIndex):
		return http.StatusInternalServerError, "corrupt_index"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// statusFor maps the error taxonomy onto HTTP status codes alone.
func statusFor(err error) int {
	status, _ := codeFor(err)
	return status
}

// writeError renders a taxonomy error as the /v1 envelope.
func (s *server) writeError(w http.ResponseWriter, err error) {
	status, code := codeFor(err)
	s.writeEnvelope(w, status, code, err.Error())
}

// writeEnvelope writes the structured error envelope. Every 503 carries
// the live retry hint — derived from the submission-queue depth and the
// tail-latency estimate (serve.RetryAfterHint) — both as the
// second-granularity Retry-After header (rounded up, so clients honoring
// the header never retry early) and as retry_after_ms in the body.
func (s *server) writeEnvelope(w http.ResponseWriter, status int, code, msg string) {
	resp := errorResponse{Error: msg, Code: code, Epoch: s.engine.Epoch()}
	if status == http.StatusServiceUnavailable {
		hint := s.engine.RetryAfterHint()
		resp.RetryAfterMS = hint.Milliseconds()
		w.Header().Set("Retry-After", strconv.FormatInt(int64(math.Ceil(hint.Seconds())), 10))
	}
	writeJSON(w, status, resp)
}

// writeBodyError answers a request whose body could not be read or
// parsed: 413 too_large over maxBodyBytes, 400 bad_request otherwise.
func (s *server) writeBodyError(w http.ResponseWriter, what string, err error) {
	if errors.As(err, new(*http.MaxBytesError)) {
		s.writeError(w, err)
		return
	}
	s.writeEnvelope(w, http.StatusBadRequest, "bad_request", "bad "+what+" body: "+err.Error())
}

func (s *server) handleFrame(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeEnvelope(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	dec := frameDecoders.Get().(*frameDecoder)
	defer frameDecoders.Put(dec)
	points, err := dec.decode(http.MaxBytesReader(w, r.Body, maxBodyBytes), r.ContentLength)
	if err != nil {
		s.writeBodyError(w, "frame", err)
		return
	}
	info, err := s.engine.Advance(r.Context(), points)
	if err != nil {
		s.writeError(w, err)
		return
	}
	writeJSON(w, http.StatusOK, frameResponse{
		Epoch:        info.Epoch,
		Points:       info.Points,
		BuildSeconds: info.BuildSeconds,
		BucketMax:    info.Stats.Max,
		BucketMean:   info.Stats.Mean,
	})
}

// parseMode maps the wire mode names onto QueryOptions.
func parseMode(req searchRequest) (quicknn.QueryOptions, error) {
	opts := quicknn.QueryOptions{K: req.K, Checks: req.Checks, Radius: req.Radius}
	if opts.K == 0 {
		opts.K = 8
	}
	switch req.Mode {
	case "", "approx":
		opts.Mode = quicknn.ModeApprox
	case "exact":
		opts.Mode = quicknn.ModeExact
	case "checks":
		opts.Mode = quicknn.ModeChecks
	case "radius":
		opts.Mode = quicknn.ModeRadius
	default:
		return opts, fmt.Errorf("%w: unknown mode %q (want approx|exact|checks|radius)",
			quicknn.ErrInvalidOptions, req.Mode)
	}
	return opts, nil
}

func (s *server) handleSearch(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		s.writeEnvelope(w, http.StatusMethodNotAllowed, "method_not_allowed", "POST only")
		return
	}
	var req searchRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxBodyBytes)).Decode(&req); err != nil {
		s.writeBodyError(w, "search", err)
		return
	}
	opts, err := parseMode(req)
	if err != nil {
		s.writeError(w, err)
		return
	}
	// Wire-level correlation: accept the caller's W3C traceparent, or
	// mint one so every request is findable; the trace id threads through
	// the engine into the flight record, latency exemplar, and promoted
	// span without allocating on the hot path.
	trace, span, traced := obs.ParseTraceParent(r.Header.Get("traceparent"))
	if !traced {
		trace, span = newTrace()
	}
	ctx := r.Context()
	if req.TimeoutMillis > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, time.Duration(req.TimeoutMillis)*time.Millisecond)
		defer cancel()
	}
	res, err := s.engine.Do(ctx, serve.Submission{
		Queries: req.Queries,
		Opts:    opts,
		Strict:  req.Strict,
		Trace:   trace,
	})
	if err != nil {
		s.writeError(w, err)
		return
	}
	// Echo the trace with this engine's request id as the span id, so
	// the caller's tracing system links straight to our evidence.
	if res.ID != 0 {
		span = res.ID
	}
	w.Header().Set("traceparent", obs.FormatTraceParent(trace, span))
	resp := searchResponse{Epoch: res.Epoch, Results: make([][]neighborJSON, len(res.Results))}
	if res.Epoch == 0 { // zero-query requests skip the engine
		resp.Epoch = s.engine.Epoch()
	}
	if res.Level > degrade.LevelNone {
		resp.DegradeLevel = int(res.Level)
		resp.Degrade = res.Level.String()
	}
	for qi, nbrs := range res.Results {
		out := make([]neighborJSON, len(nbrs))
		for i, nb := range nbrs {
			out[i] = neighborJSON{
				Index:  nb.Index,
				Point:  [3]float32{nb.Point.X, nb.Point.Y, nb.Point.Z},
				DistSq: nb.DistSq,
			}
		}
		resp.Results[qi] = out
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Refresh the Go runtime health gauges (quicknn_go_*) at scrape time
	// so every exposition carries current heap/GC/goroutine numbers
	// without a background sampler; polling the degrade level here also
	// drives the ladder's idle-time recovery (docs/robustness.md).
	s.engine.DegradeLevel()
	obs.SampleRuntime(s.sink.Reg())
	if r.URL.Query().Get("exemplars") == "1" {
		w.Header().Set("Content-Type", "application/openmetrics-text; version=1.0.0; charset=utf-8")
		_ = s.sink.Metrics.WriteOpenMetrics(w)
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_ = s.sink.Metrics.WriteText(w)
}

// newTrace mints a random trace id and span id for requests arriving
// without a traceparent header. Zero ids are invalid on the wire, so a
// (vanishingly unlikely) all-zero draw is nudged to 1.
func newTrace() (obs.TraceID, uint64) {
	var b [24]byte
	_, _ = cryptorand.Read(b[:]) // crypto/rand.Read never fails on supported platforms
	t := obs.TraceID{Hi: binary.BigEndian.Uint64(b[0:8]), Lo: binary.BigEndian.Uint64(b[8:16])}
	span := binary.BigEndian.Uint64(b[16:24])
	if t.IsZero() {
		t.Lo = 1
	}
	if span == 0 {
		span = 1
	}
	return t, span
}

func (s *server) handleFlightRecorder(w http.ResponseWriter, r *http.Request) {
	capacity, total, dropped := s.engine.FlightStats()
	recs := s.engine.FlightRecords()
	if q := r.URL.Query().Get("trace"); q != "" {
		filter, ok := obs.ParseTraceID(q)
		if !ok {
			s.writeEnvelope(w, http.StatusBadRequest, "bad_request",
				"trace filter is not a 32-hex-digit W3C trace id")
			return
		}
		kept := recs[:0]
		for _, rec := range recs {
			if rec.TraceHi == filter.Hi && rec.TraceLo == filter.Lo {
				kept = append(kept, rec)
			}
		}
		recs = kept
	}
	writeJSON(w, http.StatusOK, flightResponse{
		Capacity: capacity,
		Total:    total,
		Dropped:  dropped,
		Records:  wrapRecords(recs), // "records": [] even when recording is off
	})
}

func (s *server) handleSlowLog(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, slowlogResponse{
		TailQuantile:        s.engine.TailQuantile(),
		TailEstimateSeconds: s.engine.TailEstimate(),
		PromotedTotal:       s.engine.SlowPromoted(),
		Records:             wrapRecords(s.engine.SlowLog()),
	})
}

// handleStatus is the one-stop operational snapshot: process uptime,
// epoch, degrade rung, queue occupancy, the SLO table with active
// alerts, and the newest continuous-profiling captures. Always 200 —
// it reports state, readiness verdicts belong to /v1/readyz.
func (s *server) handleStatus(w http.ResponseWriter, r *http.Request) {
	depth, capacity := s.engine.QueueStats()
	level := s.engine.DegradeLevel()
	resp := statusResponse{
		Status:        "ok",
		UptimeSeconds: obs.MonotonicSeconds(),
		Epoch:         s.engine.Epoch(),
		Draining:      s.engine.Draining(),
		DegradeLevel:  int(level),
		Degrade:       level.String(),
		QueueDepth:    depth,
		QueueCapacity: capacity,
	}
	if s.slo != nil {
		block := &sloStatusJSON{Ticks: s.slo.Ticks(), Objectives: s.slo.Status()}
		block.Alerts = s.slo.ActiveAlerts()
		if block.Alerts == nil {
			block.Alerts = []slo.AlertStatus{}
		}
		resp.SLO = block
	}
	if s.prof != nil {
		resp.Profiles = s.prof.Last()
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleAlerts reports the SLO engine's non-inactive alerts.
func (s *server) handleAlerts(w http.ResponseWriter, r *http.Request) {
	resp := alertsResponse{
		Enabled: s.slo != nil,
		Firing:  s.slo.Firing(),
		Alerts:  s.slo.ActiveAlerts(),
	}
	if resp.Alerts == nil {
		resp.Alerts = []slo.AlertStatus{}
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleHealthz is /v1 liveness: 200 whenever the process can answer
// HTTP at all. Index presence, draining, and ladder state belong to
// readiness — a load-balancer must not restart a healthy process that
// is merely waiting for its first frame.
func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, healthzResponse{Status: "ok"})
}

// handleReadyz is /v1 readiness: whether this replica should receive
// traffic right now. Refusals use the standard envelope so the reason
// is machine-branchable: no_index (nothing to search yet), draining
// (Close began), shed (degrade ladder at its top rung). The 200 body
// reports the live ladder level and queue occupancy; polling it drives
// the ladder's idle-time recovery.
func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.engine.Draining() {
		s.writeEnvelope(w, http.StatusServiceUnavailable, "draining", serve.ErrClosed.Error())
		return
	}
	epoch := s.engine.Epoch()
	if epoch == 0 {
		s.writeEnvelope(w, http.StatusServiceUnavailable, "no_index", serve.ErrNoIndex.Error())
		return
	}
	level := s.engine.DegradeLevel()
	if level >= degrade.LevelShed {
		s.writeEnvelope(w, http.StatusServiceUnavailable, "shed", serve.ErrShed.Error())
		return
	}
	depth, capacity := s.engine.QueueStats()
	writeJSON(w, http.StatusOK, readyzResponse{
		Status:        "ok",
		Epoch:         epoch,
		DegradeLevel:  int(level),
		Degrade:       level.String(),
		QueueDepth:    depth,
		QueueCapacity: capacity,
	})
}

// handleLegacyHealthz preserves the deprecated pre-/v1 combined check:
// 503 until the first frame, then 200 with the epoch.
func (s *server) handleLegacyHealthz(w http.ResponseWriter, r *http.Request) {
	if epoch := s.engine.Epoch(); epoch > 0 {
		writeJSON(w, http.StatusOK, map[string]interface{}{"status": "ok", "epoch": epoch})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]interface{}{"status": "no-index"})
}
