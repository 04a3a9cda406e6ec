package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"time"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/obs"
	"github.com/quicknn/quicknn/internal/serve"
)

// Parts shared by the workloads that drive quicknnd over loopback HTTP.

// httpSetups is how many times quicknnd is started and brought to its
// first answer; setup_s is the median.
const httpSetups = 15

// quicknndFlags are the flags quicknnd runs with: its defaults, except
// that a traced run sizes the flight ring to hold every request of the
// run, so each record can be joined to its request by trace id. The
// size assumes at most 1000 requests/s per CPU, several times what
// either workload reaches; joinFlight fails the run if the ring
// overflowed.
func quicknndFlags(cfg config) []string {
	if !cfg.trace {
		return nil
	}
	rate := 1000 * max(4, runtime.NumCPU())
	return []string{"-flight", strconv.Itoa(int(float64(rate) * (1.25*cfg.seconds + 5)))}
}

// quicknndConfig is the serve.Config quicknnd builds from its default
// flags; the in-process layer ladder runs the engine with it.
func quicknndConfig() serve.Config {
	sink := obs.NewSink("perfbench")
	sink.Flight = obs.NewFlightRecorder(1024)
	return serve.Config{
		BucketSize:   bucketSize,
		Seed:         indexSeed,
		Maintenance:  serve.MaintRebuild,
		QueueDepth:   256,
		MaxBatch:     64,
		MaxWindow:    2 * time.Millisecond,
		Obs:          sink,
		SlowLogSize:  64,
		TailQuantile: 0.99,
	}
}

// frameSet is a seed's frames with everything derived from them before
// timing starts: the wire bodies, in-process reference indexes, and one
// single-query probe search per frame.
type frameSet struct {
	frames [][]quicknn.Point
	bodies [][]byte
	refs   []*quicknn.Index
	probes []poolReq
}

// poolReq is one pre-encoded search request with its reference answers:
// want holds each query's ascending distances, truth the brute-force
// top-k distances of the first queries that feed recall_at_8.
type poolReq struct {
	queries []quicknn.Point
	body    []byte
	want    [][]float64
	truth   [][]float64
}

func makeFrameSet(seed int64) (*frameSet, error) {
	frames, err := makeFrames(seed)
	if err != nil {
		return nil, err
	}
	fs := &frameSet{frames: frames}
	for f, pts := range frames {
		ix, err := referenceIndex(pts)
		if err != nil {
			return nil, fmt.Errorf("reference index of frame %d: %w", f, err)
		}
		fs.bodies = append(fs.bodies, frameBody(pts))
		fs.refs = append(fs.refs, ix)
		q := frames[neighborFrame(f)][:1]
		p, err := newPoolReq(ix, pts, q, approxOpts, 0)
		if err != nil {
			return nil, err
		}
		fs.probes = append(fs.probes, p)
	}
	return fs, nil
}

// newPoolReq encodes queries and computes their reference answers over
// the frame ref: approximate answers from the in-process index ix, exact
// answers by brute force. The first recall queries also get brute-force
// truth, which feeds recall_at_8.
func newPoolReq(ix *quicknn.Index, ref, queries []quicknn.Point, opts quicknn.QueryOptions, recall int) (poolReq, error) {
	if opts.Mode == quicknn.ModeExact {
		p := poolReq{queries: queries, body: searchBody(queries, "exact")}
		for _, nbrs := range quicknn.BruteForceAll(ref, queries, k) {
			p.want = append(p.want, sortedDist(nbrs))
		}
		p.truth = p.want[:recall]
		return p, nil
	}
	p := poolReq{queries: queries, body: searchBody(queries, "approx")}
	sc := quicknn.NewScratch()
	for _, q := range queries {
		got, err := ix.QueryInto(context.Background(), q, opts, sc, nil)
		if err != nil {
			return p, fmt.Errorf("reference answer: %w", err)
		}
		p.want = append(p.want, sortedDist(got))
	}
	for _, nbrs := range quicknn.BruteForceAll(ref, queries[:recall], k) {
		p.truth = append(p.truth, sortedDist(nbrs))
	}
	return p, nil
}

// boot starts quicknnd httpSetups times. Each start is timed from exec
// until frame 0 is ingested and a search on it is answered; the answer
// is checked and tallied like any other. All but the last daemon are
// stopped; the last one is returned running.
func boot(cfg config, fs *frameSet, t *tally) (*daemon, []float64, error) {
	var setups []float64
	for i := 0; i < httpSetups; i++ {
		t0 := now()
		d, err := startDaemon(cfg.quicknnd, quicknndFlags(cfg)...)
		if err != nil {
			return nil, nil, err
		}
		c := newClient(d.base)
		_, err = postFrame(c, fs.bodies[0])
		if err == nil {
			probe(c, t, fs, 0)
		}
		setups = append(setups, float64(now()-t0))
		c.close()
		if err != nil || i < httpSetups-1 {
			d.stop()
		}
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		if i == httpSetups-1 {
			return d, setups, nil
		}
	}
	panic("unreachable")
}

// probe sends frame f's probe search and tallies it.
func probe(c *client, t *tally, fs *frameSet, f int) {
	p := &fs.probes[f]
	searchCall(c, t, p.body, func(t *tally, rep *searchReply) bool {
		return checkReply(t, rep, fs.frames[f], p)
	})
}

// checkFunc judges a decoded 200 search reply, tallying its answers.
type checkFunc func(*tally, *searchReply) bool

// pendingReply is a 200 search reply of a timed window, kept with its
// check until the window ends, so that decoding and checking replies
// takes no CPU time from quicknnd while it is measured.
type pendingReply struct {
	body  []byte
	check checkFunc
}

// searchCall posts one search request and judges its reply at once.
func searchCall(c *client, t *tally, body []byte, check checkFunc) {
	if _, _, _, resp := sendSearch(c, t, body, ""); resp != nil {
		judgeReply(t, resp, check)
	}
}

// sendSearch posts one search request and tallies what the transport
// tells: non-200 replies and transport errors fail. It returns when the
// request was sent and answered, the reply's status (0 on a transport
// error), and a copy of a 200 reply's body (nil otherwise) for
// judgeReply.
func sendSearch(c *client, t *tally, body []byte, traceparent string) (t0, t1 int64, status int, reply []byte) {
	t.attempted++
	t.reqBytes += len(body)
	t0 = now()
	status, resp, err := c.post("/v1/search", body, traceparent)
	t1 = now()
	if err != nil {
		t.failed++
		return t0, t1, 0, nil
	}
	t.respBytes += len(resp)
	if status != http.StatusOK {
		t.failed++
		if status == http.StatusServiceUnavailable {
			t.refused++
		}
		return t0, t1, status, nil
	}
	return t0, t1, status, append([]byte(nil), resp...)
}

// judgeReply decodes a 200 search reply, tallies it and runs check on
// it. It reports whether the search succeeded; a reply that does not
// decode or fails its check is a failed operation.
func judgeReply(t *tally, resp []byte, check checkFunc) bool {
	var rep searchReply
	if err := json.Unmarshal(resp, &rep); err != nil {
		t.failed++
		t.wrong++
		return false
	}
	t.replies++
	if rep.DegradeLevel > 0 {
		t.degraded++
		t.levelMax = max(t.levelMax, rep.DegradeLevel)
	}
	if !check(t, &rep) {
		t.failed++
		return false
	}
	return true
}

// judgeAll judges each load goroutine's kept replies after a timed
// window, one goroutine per list, into the matching tally, and returns
// how many searches of each list succeeded.
func judgeAll(pending [][]pendingReply, tallies []*tally) []int {
	ok := make([]int, len(pending))
	var wg sync.WaitGroup
	for i := range pending {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for _, p := range pending[i] {
				if judgeReply(tallies[i], p.body, p.check) {
					ok[i]++
				}
			}
		}(i)
	}
	wg.Wait()
	return ok
}

// searchSpan is the span name of a traced search round trip: a request
// quicknnd answered with 200 has a flight record to join, a refused or
// lost one may not.
func searchSpan(status int) string {
	if status == http.StatusOK {
		return "quicknnd.search"
	}
	return "quicknnd.search_failed"
}

// checkReply compares a search reply with p's reference answers over
// the frame ref, tallying each query's answer. A degraded reply was
// served with cheaper options, so only its neighbors' validity is
// checked. The queries of a full-fidelity reply that have a truth feed
// recall_at_8.
func checkReply(t *tally, rep *searchReply, ref []quicknn.Point, p *poolReq) bool {
	if len(rep.Results) != len(p.queries) {
		t.checked++
		t.wrong++
		return false
	}
	ok := true
	for qi, q := range p.queries {
		nbrs := rep.neighbors(qi)
		t.checked++
		good := validNeighbors(ref, q, nbrs)
		if rep.DegradeLevel > 0 {
			good = good && len(nbrs) > 0 && len(nbrs) <= k
		} else {
			good = good && sameDist(sortedDist(nbrs), p.want[qi])
		}
		if !good {
			t.wrong++
			ok = false
		}
	}
	if rep.DegradeLevel == 0 {
		for qi, truth := range p.truth {
			t.hits += recallHits(sortedDist(rep.neighbors(qi)), truth)
			t.truths += k
		}
	}
	return ok
}

// counters are the daemon's process and /v1/metrics readings at one
// instant; the difference of two brackets a timed window.
type counters struct {
	proc    procStat
	metrics map[string]float64
}

func readCounters(c *client, pid int) (counters, error) {
	ps, err := readProc(pid)
	if err != nil {
		return counters{}, err
	}
	m, err := scrape(c)
	if err != nil {
		return counters{}, err
	}
	return counters{ps, m}, nil
}

// setDaemonLayer sets the quicknnd and serve metrics that come from the
// daemon's counters over a window in which it answered reqs searches.
func setDaemonLayer(res *result, before, after counters, reqs int, t tally) {
	n := float64(max(reqs, 1))
	res.set("quicknnd.cpu_us_per_req", (after.proc.cpuSeconds-before.proc.cpuSeconds)*1e6/n)
	res.set("quicknnd.gc_per_1k_req", (after.metrics["quicknn_go_gc_total"]-before.metrics["quicknn_go_gc_total"])*1000/n)
	res.set("quicknnd.req_bytes", float64(t.reqBytes)/float64(max(t.attempted, 1)))
	res.set("quicknnd.resp_bytes", float64(t.respBytes)/float64(max(t.attempted, 1)))
	res.set("serve.batch_points_mean", histMean(before.metrics, after.metrics, "quicknn_serve_batch_size", ""))
	res.set("degrade.level_max", float64(t.levelMax))
	res.set("degrade.refused_frac", float64(t.refused)/float64(max(t.attempted, 1)))
}

// joinFlight adds, under every quicknnd.search span of the logs, the
// daemon's view of the request from its flight record: a serve.request
// span of the record's total time with the queue, window, pickup and
// exec phases under it. The daemon's clock is not the benchmark's, so
// serve.request is centred in the round trip; durations are measured,
// offsets are not. It returns the joined records, and an error if any
// answered request has no record, as when the ring overflowed.
func joinFlight(logs []*spanLog, recs map[obs.TraceID]flightRecord) ([]flightRecord, error) {
	var (
		joined  []flightRecord
		missing int
	)
	for _, l := range logs {
		n := len(l.spans)
		for i := 0; i < n; i++ {
			sp := l.spans[i]
			if sp.name != "quicknnd.search" {
				continue
			}
			rec, ok := recs[sp.trace]
			if !ok {
				missing++
				continue
			}
			joined = append(joined, rec)
			total := secNs(rec.Total)
			start := sp.start + (sp.end-sp.start-total)/2
			srv := l.add("serve.request", start, start+total, i, sp.trace)
			l.addSeq(srv, start, sp.trace,
				[]string{"serve.queue", "serve.window", "serve.pickup", "serve.exec"},
				[]int64{secNs(rec.Queue), secNs(rec.Window), secNs(rec.Pickup), secNs(rec.Exec)})
		}
	}
	if missing > 0 {
		return nil, fmt.Errorf("%d of %d answered traced searches have no flight record", missing, missing+len(joined))
	}
	if len(joined) == 0 {
		return nil, fmt.Errorf("no traced search was answered")
	}
	return joined, nil
}

// setFlightLayer sets the serve phase and kdtree work metrics from the
// joined flight records, and returns the sum of the phase medians in µs.
func setFlightLayer(res *result, recs []flightRecord) float64 {
	var queue, window, pickup, exec []float64
	var queries, scanned, buckets, steps float64
	for _, r := range recs {
		queue = append(queue, r.Queue*1e6)
		window = append(window, r.Window*1e6)
		pickup = append(pickup, r.Pickup*1e6)
		exec = append(exec, r.Exec*1e6)
		queries += float64(r.Queries)
		scanned += float64(r.PointsScanned)
		buckets += float64(r.BucketsVisited)
		steps += float64(r.TraversalSteps)
	}
	q, w, p, e := median(queue), median(window), median(pickup), median(exec)
	res.set("serve.queue_us", q)
	res.set("serve.window_us", w)
	res.set("serve.pickup_us", p)
	res.set("serve.exec_us", e)
	queries = max(queries, 1)
	res.set("kdtree.points_scanned_per_query", scanned/queries)
	res.set("kdtree.buckets_per_query", buckets/queries)
	res.set("kdtree.traversal_steps_per_query", steps/queries)
	return q + w + p + e
}

// setIngestLayer sets the kdtree ingest phase metrics from the
// quicknn_ingest_phase_seconds observations between two scrapes.
func setIngestLayer(res *result, before, after map[string]float64) {
	for _, ph := range []string{"splits", "place", "rebalance"} {
		res.set("kdtree."+ph+"_ms", 1e3*histMean(before, after, "quicknn_ingest_phase_seconds", `{phase="`+ph+`"}`))
	}
}
