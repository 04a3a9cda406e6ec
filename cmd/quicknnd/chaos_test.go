//go:build quicknn_faults

package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/degrade"
	"github.com/quicknn/quicknn/internal/faults"
	"github.com/quicknn/quicknn/internal/obs"
	"github.com/quicknn/quicknn/internal/serve"
)

// TestChaosDegradeShedRecover is the in-process twin of `quicknnd
// -chaos` (make chaos-demo), run under -race in CI: real HTTP through
// httptest against an engine with armed fault injection and a tiny
// worker budget, driven past saturation by concurrent clients. It
// asserts the degradation contract end to end:
//
//   - every burst reply is a 200 (possibly degraded) or a 503 whose
//     envelope carries a branchable code (overloaded|shed|degraded) and
//     a positive retry_after_ms — typed sheds only, no hangs, no 500s;
//   - the ladder engaged: level > 0 in the quicknn_degrade_* metric
//     families AND stamped into flight records;
//   - after the burst the ladder recovers to level 0 within bounded
//     time, and a strict (full-fidelity) request succeeds again.
func TestChaosDegradeShedRecover(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos burst in -short mode")
	}
	sink := obs.NewSink("quicknnd-chaos-test")
	sink.Flight = obs.NewFlightRecorder(256)
	plan := faults.New(11).
		Set(faults.WorkerStall, faults.Rule{Prob: 0.6, Delay: 8 * time.Millisecond}).
		Set(faults.BuildSlow, faults.Rule{Every: 2, Delay: 2 * time.Millisecond}).
		Set(faults.RetireDelay, faults.Rule{Every: 3, Delay: time.Millisecond}).
		Set(faults.SubmitDelay, faults.Rule{Prob: 0.1, Delay: 200 * time.Microsecond})
	engine := serve.NewEngine(serve.Config{
		Workers:    1,
		QueueDepth: 8,
		MaxBatch:   8,
		Obs:        sink,
		Degrade:    degrade.Config{TailBudget: 0.05},
		Faults:     plan,
	})
	t.Cleanup(func() { _ = engine.Close(context.Background()) })
	s := &server{engine: engine, sink: sink}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)

	// Two frames: the second build visit trips the Every:2 BuildSlow
	// rule, so the build seam is provably exercised.
	ingestFrame(t, ts, 2000, 1)
	ingestFrame(t, ts, 2000, 1)

	// Overload burst: more in-flight clients than the queue bound admits.
	const clients, perClient = 16, 30
	var ok200, degraded200, shed503, violations atomic.Int64
	var firstViolation atomic.Value
	violation := func(format string, args ...interface{}) {
		violations.Add(1)
		firstViolation.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < perClient; i++ {
				resp, body := postJSON(t, ts.URL+"/v1/search",
					searchRequest{Queries: wirePoints{{X: 1, Y: 2, Z: 1}, {X: 40, Y: 30, Z: 1}}, K: 16, Mode: "exact"})
				switch resp.StatusCode {
				case http.StatusOK:
					var sr searchResponse
					if err := json.Unmarshal(body, &sr); err != nil {
						violation("client %d: 200 body %s: %v", c, body, err)
						return
					}
					if sr.DegradeLevel > 0 {
						degraded200.Add(1)
					} else {
						ok200.Add(1)
					}
				case http.StatusServiceUnavailable:
					var env errorResponse
					if err := json.Unmarshal(body, &env); err != nil {
						violation("client %d: 503 body %s: %v", c, body, err)
						return
					}
					switch env.Code {
					case "overloaded", "shed", "degraded":
					default:
						violation("client %d: 503 code %q: %s", c, env.Code, body)
						return
					}
					if env.RetryAfterMS <= 0 {
						violation("client %d: 503 without retry_after_ms: %s", c, body)
						return
					}
					shed503.Add(1)
				default:
					violation("client %d: status %d: %s", c, resp.StatusCode, body)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if v := firstViolation.Load(); v != nil {
		t.Fatalf("burst contract violation (%d total): %s", violations.Load(), v)
	}
	if total := ok200.Load() + degraded200.Load() + shed503.Load(); total != clients*perClient {
		t.Fatalf("burst answered %d of %d requests", total, clients*perClient)
	}
	t.Logf("burst: %d full-fidelity, %d degraded, %d shed/refused",
		ok200.Load(), degraded200.Load(), shed503.Load())
	if degraded200.Load()+shed503.Load() == 0 {
		t.Fatal("burst never engaged the degrade ladder")
	}

	// Ladder level > 0 must be visible in the metric families...
	snap := sink.Metrics.Snapshot()
	fam, ok := snap.Find("quicknn_degrade_transitions_total")
	if !ok {
		t.Fatal("quicknn_degrade_transitions_total missing")
	}
	up, ok := fam.Find("up")
	if !ok || up.Counter <= 0 {
		t.Fatalf("quicknn_degrade_transitions_total{direction=up} = %+v, want > 0", up)
	}
	// ...and in the flight-record stamps.
	var maxStamp uint8
	for _, rec := range engine.FlightRecords() {
		if rec.Degrade > maxStamp {
			maxStamp = rec.Degrade
		}
	}
	if maxStamp == 0 {
		t.Fatal("no flight record carries a degrade stamp > 0")
	}

	// The fault schedule actually ran (the injectors are live in this
	// build, not compiled out).
	if plan.Fired(faults.WorkerStall) == 0 || plan.Fired(faults.BuildSlow) == 0 {
		t.Fatalf("fault plan barely fired: stalls %d, builds %d",
			plan.Fired(faults.WorkerStall), plan.Fired(faults.BuildSlow))
	}

	// Bounded recovery: polling readiness (time-based decay) walks the
	// ladder to 0, then light tolerant traffic re-seeds the tail signal
	// until a strict full-fidelity request is admitted again.
	deadline := time.Now().Add(30 * time.Second)
	for engine.DegradeLevel() != degrade.LevelNone {
		if time.Now().After(deadline) {
			t.Fatalf("ladder stuck at %v after calm deadline", engine.DegradeLevel())
		}
		time.Sleep(20 * time.Millisecond)
	}
	for {
		postJSON(t, ts.URL+"/v1/search", searchRequest{Queries: wirePoints{{X: 1, Y: 2, Z: 1}}, K: 2})
		resp, body := postJSON(t, ts.URL+"/v1/search",
			searchRequest{Queries: wirePoints{{X: 1, Y: 2, Z: 1}}, K: 4, Mode: "exact", Strict: true})
		if resp.StatusCode == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("strict search never recovered: %d: %s", resp.StatusCode, body)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestChaosFrameCorruptionTyped pins the ingest seam's error contract
// under total corruption: a frame truncated to nothing surfaces as the
// typed empty_input envelope on the wire — never a 500, never a crash.
func TestChaosFrameCorruptionTyped(t *testing.T) {
	sink := obs.NewSink("quicknnd-corrupt-test")
	engine := serve.NewEngine(serve.Config{
		Obs:    sink,
		Faults: faults.New(5).Set(faults.FrameCorrupt, faults.Rule{Every: 1}),
	})
	t.Cleanup(func() { _ = engine.Close(context.Background()) })
	s := &server{engine: engine, sink: sink}
	ts := httptest.NewServer(s.routes())
	t.Cleanup(ts.Close)

	// The corruption oracle (same seed, same rule) predicts each visit.
	oracle := faults.New(5).Set(faults.FrameCorrupt, faults.Rule{Every: 1})
	pts := make(wirePoints, 64)
	for i := range pts {
		pts[i] = quicknn.Point{X: float32(i), Y: float32(i % 7), Z: 1}
	}
	for attempt := 0; attempt < 8; attempt++ {
		want := oracle.CorruptLen(len(pts))
		resp, body := postJSON(t, ts.URL+"/v1/frame", frameRequest{Points: pts})
		if want == 0 {
			var env errorResponse
			if resp.StatusCode != http.StatusBadRequest || json.Unmarshal(body, &env) != nil || env.Code != "empty_input" {
				t.Fatalf("attempt %d: fully corrupted frame = %d %s, want 400 empty_input", attempt, resp.StatusCode, body)
			}
			continue
		}
		var fr frameResponse
		if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &fr) != nil {
			t.Fatalf("attempt %d: frame = %d %s, want 200", attempt, resp.StatusCode, body)
		}
		if fr.Points != want {
			t.Fatalf("attempt %d: ingested %d points, want deterministic prefix %d", attempt, fr.Points, want)
		}
	}
}
