package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/quicknn/quicknn"
)

// runChaos is the -chaos selftest: it drives the running daemon through
// sustained overload (optionally with armed fault injection — `make
// chaos-demo` passes a -faults spec) using real HTTP requests, and
// asserts the degradation contract end to end:
//
//  1. frame ingest survives corruption faults with typed errors only;
//  2. under an overload burst every reply is either a 200 (possibly
//     degraded) or a structured 503 envelope with a branchable code
//     (overloaded|shed|degraded) and a live retry_after_ms hint —
//     never a hang, a 500, or an untyped body;
//  3. the degrade ladder engaged: level > 0 is visible in both the
//     quicknn_degrade_* metric families and the flight-record stamps;
//  4. after the burst stops the ladder recovers to level 0 within
//     bounded time and full-fidelity service resumes.
//
// With sloOn (`make slo-demo`: -chaos plus a tight -slo latency
// objective) it additionally asserts the burn-rate alerting contract:
// the overload burst (heavier requests, so queue waits deterministically
// violate the target) must drive the latency objective's fast rule
// through pending → firing (visible in the
// quicknn_slo_alert_transitions_total counters), then resolve once the
// trailing windows quiet down — and the degrade controller, which
// consumed the firing signal as pressure throughout the burst, must
// still walk back to level 0 and admit a strict full-fidelity request
// (no deadlock between the alert feedback and recovery).
func runChaos(base string, sloOn bool) error {
	client := &http.Client{Timeout: 30 * time.Second}

	// 1. Ingest frames until one lands. Armed corruption faults may
	// truncate a frame to nothing — that must surface as the typed
	// empty_input envelope, never anything else.
	frame := wirePoints(quicknn.SyntheticFrames(3000, 1, 7)[0])
	ingested := false
	for attempt := 0; attempt < 16 && !ingested; attempt++ {
		status, body, err := post(client, base+"/v1/frame", frameRequest{Points: frame})
		if err != nil {
			return err
		}
		switch status {
		case http.StatusOK:
			ingested = true
		case http.StatusBadRequest:
			var env errorResponse
			if err := json.Unmarshal(body, &env); err != nil || env.Code != "empty_input" {
				return fmt.Errorf("corrupted /v1/frame = 400 with body %s, want code empty_input", body)
			}
		default:
			return fmt.Errorf("/v1/frame attempt %d = %d: %s", attempt, status, body)
		}
	}
	if !ingested {
		return fmt.Errorf("no frame survived 16 ingest attempts (corruption rule too aggressive?)")
	}

	// 2. Overload burst: hammer /v1/search from many goroutines, far
	// past the queue's capacity, while frame advances churn epochs in
	// the background (exercising the build/retire fault seams).
	const (
		burstWorkers = 24
		burstPerConn = 60
	)
	var (
		ok200, degraded200     atomic.Int64
		shed503                atomic.Int64
		badStatus, badEnvelope atomic.Int64
		firstViolation         atomic.Value // string
	)
	violation := func(format string, args ...interface{}) {
		firstViolation.CompareAndSwap(nil, fmt.Sprintf(format, args...))
	}
	queries := wirePoints{{X: 1, Y: 2, Z: 3}, {X: 40, Y: 50, Z: 60}, {X: 7, Y: 7, Z: 7}, {X: 90, Y: 10, Z: 30}}
	// The SLO run needs burst latencies to violate the objective
	// deterministically, not just when scheduling is unlucky: heavy
	// requests (many exact queries each) make every queued request's
	// wait dwarf a millisecond-scale target even after the ladder clamps
	// budgets.
	burstQueries := queries
	if sloOn {
		burstQueries = make(wirePoints, 0, 64)
		for len(burstQueries) < 64 {
			burstQueries = append(burstQueries, queries...)
		}
	}
	var wg sync.WaitGroup
	stopFrames := make(chan struct{})
	framesDone := make(chan struct{})
	go func() { // background epoch churn
		defer close(framesDone)
		for i := 0; ; i++ {
			select {
			case <-stopFrames:
				return
			default:
			}
			_, _, _ = post(client, base+"/v1/frame", frameRequest{Points: frame})
			time.Sleep(10 * time.Millisecond)
		}
	}()
	for w := 0; w < burstWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := &http.Client{Timeout: 30 * time.Second}
			for i := 0; i < burstPerConn; i++ {
				req := searchRequest{Queries: burstQueries, K: 16, Mode: "exact"}
				status, body, err := post(c, base+"/v1/search", req)
				if err != nil {
					badStatus.Add(1)
					violation("worker %d request %d: transport: %v", w, i, err)
					return
				}
				switch status {
				case http.StatusOK:
					var sr searchResponse
					if err := json.Unmarshal(body, &sr); err != nil {
						badEnvelope.Add(1)
						violation("200 body not a searchResponse: %s", body)
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
						badEnvelope.Add(1)
						violation("503 body not an envelope: %s", body)
						return
					}
					switch env.Code {
					case "overloaded", "shed", "degraded":
					default:
						badEnvelope.Add(1)
						violation("503 with unexpected code %q: %s", env.Code, body)
						return
					}
					if env.RetryAfterMS <= 0 {
						badEnvelope.Add(1)
						violation("503 without retry_after_ms: %s", body)
						return
					}
					shed503.Add(1)
				default:
					badStatus.Add(1)
					violation("worker %d request %d: status %d: %s", w, i, status, body)
					return
				}
			}
		}(w)
	}
	// Let the workers finish, then stop the frame churn.
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(120 * time.Second):
		return fmt.Errorf("burst deadlocked: %d ok, %d degraded, %d shed so far",
			ok200.Load(), degraded200.Load(), shed503.Load())
	}
	close(stopFrames)
	<-framesDone
	if v := firstViolation.Load(); v != nil {
		return fmt.Errorf("burst contract violation: %s", v)
	}
	if badStatus.Load() > 0 || badEnvelope.Load() > 0 {
		return fmt.Errorf("burst saw %d bad statuses, %d bad envelopes", badStatus.Load(), badEnvelope.Load())
	}
	total := ok200.Load() + degraded200.Load() + shed503.Load()
	if total != burstWorkers*burstPerConn {
		return fmt.Errorf("burst answered %d of %d requests", total, burstWorkers*burstPerConn)
	}
	fmt.Printf("quicknnd: chaos burst: %d full-fidelity, %d degraded, %d shed/refused\n",
		ok200.Load(), degraded200.Load(), shed503.Load())

	// 3. The ladder must have engaged, and both observability surfaces
	// must show it: the metric families and the flight-record stamps.
	if degraded200.Load()+shed503.Load() == 0 {
		return fmt.Errorf("burst never engaged the degrade ladder (is -queue small enough?)")
	}
	status, scrape, err := get(client, base+"/v1/metrics")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/v1/metrics = %d", status)
	}
	ups, err := scrapeCounter(string(scrape), `quicknn_degrade_transitions_total{direction="up"}`)
	if err != nil {
		return err
	}
	if ups <= 0 {
		return fmt.Errorf("quicknn_degrade_transitions_total{direction=\"up\"} = %g, want > 0", ups)
	}
	status, body, err := get(client, base+"/v1/debug/quicknn/flightrecorder")
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("/v1/debug/quicknn/flightrecorder = %d", status)
	}
	var fl flightResponse
	if err := json.Unmarshal(body, &fl); err != nil {
		return fmt.Errorf("flightrecorder body: %w", err)
	}
	stamped := false
	for _, rec := range fl.Records {
		if rec.Degrade > 0 {
			stamped = true
			break
		}
	}
	if !stamped {
		return fmt.Errorf("no flight record carries a degrade stamp > 0 (%d records)", len(fl.Records))
	}

	// 3b. SLO burn-rate alerting engaged and resolved: the burst's queue
	// waits blew the latency objective's budget, so the fast rule must
	// have walked pending → firing (the transition counters are
	// cumulative, so this holds even if the alert already resolved).
	// Then, with the burst gone and the windows quiet — no traffic reads
	// as burn 0 — the alert must resolve deterministically, clearing the
	// SLOFastBurn pressure before the ladder-recovery assertions below.
	if sloOn {
		sloDeadline := time.Now().Add(15 * time.Second)
		for {
			status, scrape, err := get(client, base+"/v1/metrics")
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("/v1/metrics = %d", status)
			}
			pending, err1 := scrapeCounter(string(scrape),
				`quicknn_slo_alert_transitions_total{objective="latency",rule="fast",to="pending"}`)
			firing, err2 := scrapeCounter(string(scrape),
				`quicknn_slo_alert_transitions_total{objective="latency",rule="fast",to="firing"}`)
			if err1 == nil && err2 == nil && pending >= 1 && firing >= 1 {
				fmt.Printf("quicknnd: chaos slo: fast rule fired (pending=%g firing=%g)\n", pending, firing)
				break
			}
			if time.Now().After(sloDeadline) {
				return fmt.Errorf("latency fast-burn alert never fired (pending err %v, firing err %v): is the -slo target tight enough?", err1, err2)
			}
			time.Sleep(50 * time.Millisecond)
		}
		resolveDeadline := time.Now().Add(30 * time.Second)
		for {
			status, body, err := get(client, base+"/v1/alerts")
			if err != nil {
				return err
			}
			if status != http.StatusOK {
				return fmt.Errorf("/v1/alerts = %d: %s", status, body)
			}
			var al alertsResponse
			if err := json.Unmarshal(body, &al); err != nil {
				return fmt.Errorf("/v1/alerts body: %w", err)
			}
			if !al.Enabled {
				return fmt.Errorf("/v1/alerts reports SLOs disabled in an -slo run")
			}
			if !al.Firing {
				break
			}
			if time.Now().After(resolveDeadline) {
				return fmt.Errorf("SLO alerts never resolved after the burst: %s", body)
			}
			time.Sleep(100 * time.Millisecond)
		}
		status, scrape, err = get(client, base+"/v1/metrics")
		if err != nil {
			return err
		}
		if status != http.StatusOK {
			return fmt.Errorf("/v1/metrics = %d", status)
		}
		resolved, err := scrapeCounter(string(scrape),
			`quicknn_slo_alert_transitions_total{objective="latency",rule="fast",to="resolved"}`)
		if err != nil {
			return err
		}
		if resolved < 1 {
			return fmt.Errorf("fast rule resolved %g times, want >= 1", resolved)
		}
		fmt.Println("quicknnd: chaos slo: fast rule resolved")
	}

	// 4. Bounded recovery: with the burst stopped, polling readiness
	// must walk the ladder back to level 0. The controller guarantees
	// MaxLevel×StepDown seconds of calm suffice; give the deadline
	// slack for scheduling noise.
	deadline := time.Now().Add(30 * time.Second)
	for {
		status, body, err := get(client, base+"/v1/readyz")
		if err != nil {
			return err
		}
		if status == http.StatusOK {
			var rz readyzResponse
			if err := json.Unmarshal(body, &rz); err != nil {
				return fmt.Errorf("/v1/readyz body: %w", err)
			}
			if rz.DegradeLevel == 0 {
				break
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("ladder never recovered to level 0: /v1/readyz = %d: %s", status, body)
		}
		time.Sleep(50 * time.Millisecond)
	}

	// 5. Full-fidelity service resumes: the tail estimate is still
	// stale-high from the burst, so light tolerant traffic re-seeds it
	// with healthy samples; within the deadline a strict request
	// (refusing degraded answers) must be admitted at full fidelity.
	strictDeadline := time.Now().Add(30 * time.Second)
	for {
		if _, _, err := post(client, base+"/v1/search",
			searchRequest{Queries: queries[:1], K: 2}); err != nil {
			return err
		}
		status, body, err = post(client, base+"/v1/search",
			searchRequest{Queries: queries, K: 4, Mode: "exact", Strict: true})
		if err != nil {
			return err
		}
		if status == http.StatusOK {
			return nil
		}
		if time.Now().After(strictDeadline) {
			return fmt.Errorf("strict /v1/search never recovered: %d: %s", status, body)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// scrapeCounter pulls one series' value out of a Prometheus text
// exposition by its exact name{labels} prefix.
func scrapeCounter(scrape, series string) (float64, error) {
	for _, line := range strings.Split(scrape, "\n") {
		if !strings.HasPrefix(line, series) {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		return strconv.ParseFloat(fields[len(fields)-1], 64)
	}
	return 0, fmt.Errorf("series %s missing from scrape", series)
}
