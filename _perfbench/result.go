package main

import (
	"fmt"
	"math"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of the system sees; an untraced run
// prints every one of them on every workload. Where a workload has no
// natural source for one, NOTES.md says what it measures there.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"search_p50_ms", "ms"},
	{"search_p99_ms", "ms"},
	{"search_rps", "1/s"},
	{"ingest_p50_ms", "ms"},
	{"ingest_p90_ms", "ms"},
	{"drive_fps", "1/s"},
	{"recall_at_8", "ratio"},
	{"ok_frac", "ratio"},
	{"undegraded_frac", "ratio"},
	{"mem_mb", "MB"},
}

// perLayer are the traced run's metrics, one group per module. A layer
// the workload does not run reports 0.
var perLayer = []metricDef{
	{"quicknnd.search_self_us", "us"},
	{"quicknnd.search_self_ladder_us", "us"},
	{"quicknnd.frame_self_ms", "ms"},
	{"quicknnd.cpu_us_per_req", "us"},
	{"quicknnd.gc_per_1k_req", "count"},
	{"quicknnd.req_bytes", "bytes"},
	{"quicknnd.resp_bytes", "bytes"},
	{"serve.queue_us", "us"},
	{"serve.window_us", "us"},
	{"serve.pickup_us", "us"},
	{"serve.exec_us", "us"},
	{"serve.do_us", "us"},
	{"serve.batch_points_mean", "count"},
	{"serve.advance_ms", "ms"},
	{"degrade.level_max", "level"},
	{"degrade.refused_frac", "ratio"},
	{"quicknn.query_batch_ms", "ms"},
	{"quicknn.update_ms", "ms"},
	{"quicknn.query_us", "us"},
	{"kdtree.splits_ms", "ms"},
	{"kdtree.place_ms", "ms"},
	{"kdtree.rebalance_ms", "ms"},
	{"kdtree.points_scanned_per_query", "count"},
	{"kdtree.buckets_per_query", "count"},
	{"kdtree.traversal_steps_per_query", "count"},
	{"kdtree.bucket_max", "count"},
	{"bench.gen_late_p99_ms", "ms"},
	{"bench.trace_overhead", "ratio"},
	{"bench.op_p50_traced_ms", "ms"},
	{"bench.accounted_frac", "ratio"},
	{"fail_frac", "ratio"},
	{"degraded_frac", "ratio"},
}

// metric is one reported value.
type metric struct {
	name, unit string
	value      float64
}

// tally counts operations and answer checks. Each load goroutine keeps
// its own and merges it into the result when it ends.
type tally struct {
	// attempted counts operations started; failed counts those that got
	// a non-200 reply, a transport error or a wrong answer.
	attempted, failed int
	// checked counts answers compared against a reference; wrong counts
	// the ones that disagreed.
	checked, wrong int
	// replies counts search replies; degraded counts those carrying a
	// degrade level above 0; refused counts 503 refusals.
	replies, degraded, refused int
	// hits of truths true top-k neighbors were found (recall_at_8).
	hits, truths int
	// reqBytes and respBytes total the search request and reply bodies.
	reqBytes, respBytes int
	// levelMax is the highest degrade level a reply carried.
	levelMax int
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.checked += o.checked
	t.wrong += o.wrong
	t.replies += o.replies
	t.degraded += o.degraded
	t.refused += o.refused
	t.hits += o.hits
	t.truths += o.truths
	t.reqBytes += o.reqBytes
	t.respBytes += o.respBytes
	t.levelMax = max(t.levelMax, o.levelMax)
}

// result is one run's outcome.
type result struct {
	tally
	values  map[string]float64
	metrics []metric
	spans   *spanSet
}

func newResult() *result { return &result{values: make(map[string]float64)} }

func (r *result) set(name string, v float64) { r.values[name] = v }

// finish fills the outcome metrics and orders the metrics of the run's
// kind. Every end-to-end metric must have been set by the workload.
func (r *result) finish(trace bool) error {
	failFrac := 0.0
	if r.attempted > 0 {
		failFrac = float64(r.failed) / float64(r.attempted)
	}
	degFrac := 0.0
	if r.replies > 0 {
		degFrac = float64(r.degraded) / float64(r.replies)
	}
	if r.truths > 0 {
		r.set("recall_at_8", float64(r.hits)/float64(r.truths))
	}
	r.set("ok_frac", 1-failFrac)
	r.set("undegraded_frac", 1-degFrac)
	r.set("fail_frac", failFrac)
	r.set("degraded_frac", degFrac)
	defs := endToEnd
	if trace {
		defs = perLayer
	}
	for _, d := range defs {
		v, ok := r.values[d.name]
		if !ok && !trace {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.name, v)
		}
		r.metrics = append(r.metrics, metric{d.name, d.unit, v})
	}
	return nil
}

// summaryValue and summary are the JSON shapes of the last output line.
type summaryValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type summary struct {
	Correct   bool                    `json:"correct"`
	Attempted int                     `json:"attempted"`
	Failed    int                     `json:"failed"`
	Metrics   map[string]summaryValue `json:"metrics"`
}

func (r *result) summary() summary {
	s := summary{
		Correct:   r.wrong == 0 && r.checked > 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]summaryValue, len(r.metrics)),
	}
	for _, m := range r.metrics {
		s.Metrics[m.name] = summaryValue{m.value, m.unit}
	}
	return s
}
