package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/obs"
	"github.com/quicknn/quicknn/internal/serve"
)

// The search-closed workload: nproc clients, one keep-alive connection
// each, loop on POST /v1/search with 8 approximate k=8 queries per
// request. The index holds one frame, loaded before timing; no ingest
// runs while it is measured. Its ingest, frame-rate and recall metrics
// come from a warm-up before the timed window that posts frames of every
// scene back to back for half the run's length, each followed by a
// recallQueries-query search from the next frame of its scene.

const (
	closedQueries = 8
	// closedPool requests are drawn per run; request n of the stream is
	// closedPool[n % closedPool].
	closedPool    = 512
	recallQueries = 256
	// ladderRequests bounds the stream prefix the traced run replays in
	// process.
	ladderRequests = 2000
)

// closedRun is one search-closed run's state.
type closedRun struct {
	cfg     config
	fs      *frameSet
	res     *result
	held    int // frame the daemon's index holds
	pool    []poolReq
	clients []*client
	// next numbers the requests of the stream across windows.
	next atomic.Int64
}

// windowStats is what one timed window measured.
type windowStats struct {
	lat     []float64 // ns
	done    []int64
	elapsed int64
	ok      int
	tally   tally
	// pending holds the window's replies until it ends.
	pending []pendingReply
}

func runSearchClosed(ctx context.Context, cfg config) (*result, error) {
	fs, err := makeFrameSet(cfg.seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	d, setups, err := boot(cfg, fs, &res.tally)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	r := &closedRun{cfg: cfg, fs: fs, res: res}
	for i := 0; i < runtime.NumCPU(); i++ {
		r.clients = append(r.clients, newClient(d.base))
	}
	defer func() {
		for _, c := range r.clients {
			c.close()
		}
	}()

	// Peak RSS covers the ingest warm-up and the search window.
	resetPeakRSS(d.pid())
	rng := rand.New(rand.NewSource(cfg.seed))
	warm, err := r.warmIngest(rng, cfg.seconds/2)
	if err != nil {
		return nil, err
	}
	if err := r.makePool(rng); err != nil {
		return nil, err
	}
	c := r.clients[0]
	res.set("setup_s", median(setups)/1e9)
	res.set("ingest_p50_ms", quantile(nsTo(warm.ingest, time.Millisecond), 0.5))
	res.set("ingest_p90_ms", quantile(nsTo(warm.ingest, time.Millisecond), 0.9))
	res.set("drive_fps", float64(len(warm.ingest))/(float64(warm.loop)/1e9))
	res.set("quicknnd.frame_self_ms", median(nsTo(warm.self, time.Millisecond)))
	res.set("serve.advance_ms", median(nsTo(warm.build, time.Millisecond)))
	res.set("kdtree.bucket_max", float64(warm.bucketMax))

	if !cfg.trace {
		w := r.window(ctx, cfg.seconds, nil)
		ps, err := readProc(d.pid())
		if err != nil {
			return nil, err
		}
		res.set("search_p50_ms", quantile(nsTo(w.lat, time.Millisecond), 0.5))
		res.set("search_p99_ms", tailQuantile(nsTo(w.lat, time.Millisecond), w.done, 0.99))
		res.set("search_rps", float64(w.ok)/(float64(w.elapsed)/1e9))
		res.set("mem_mb", ps.hwmMB)
		return res, ctx.Err()
	}

	// Traced run: an untraced stretch as the base of bench.trace_overhead,
	// then the traced window bracketed by the daemon's counters.
	base := r.window(ctx, cfg.seconds/4, nil)
	before, err := readCounters(c, d.pid())
	if err != nil {
		return nil, err
	}
	setIngestLayer(res, nil, before.metrics)
	first := int(r.next.Load())
	res.spans = &spanSet{}
	logs := make([]*spanLog, len(r.clients))
	for i := range logs {
		logs[i] = res.spans.newLog(fmt.Sprintf("client-%d", i))
	}
	w := r.window(ctx, cfg.seconds, logs)
	after, err := readCounters(c, d.pid())
	if err != nil {
		return nil, err
	}
	recs, err := flightRecords(c)
	if err != nil {
		return nil, err
	}
	joined, err := joinFlight(logs, recs)
	if err != nil {
		return nil, err
	}
	setDaemonLayer(res, before, after, w.tally.attempted, w.tally)
	phases := setFlightLayer(res, joined)
	self := median(nsTo(res.spans.selfTimes()["quicknnd.search"], time.Microsecond))
	p50 := median(nsTo(w.lat, time.Microsecond))
	res.set("quicknnd.search_self_us", self)
	res.set("bench.op_p50_traced_ms", p50/1e3)
	res.set("bench.accounted_frac", (self+phases)/p50)
	res.set("bench.trace_overhead", median(w.lat)/median(base.lat))

	n := min(int(r.next.Load())-first, ladderRequests)
	doP50, err := r.ladderEngine(ctx, first, n)
	if err != nil {
		return nil, err
	}
	res.set("serve.do_us", doP50/1e3)
	res.set("quicknnd.search_self_ladder_us", (median(w.lat)-doP50)/1e3)
	res.set("quicknn.query_us", r.ladderIndex(first, n)/1e3)
	return res, ctx.Err()
}

// warmStats is what the warm-up ingest loop measured, in nanoseconds.
type warmStats struct {
	ingest, self, build []float64
	loop                int64
	bucketMax           int
}

// warmIngest posts frames back to back for the given seconds, and at
// least one of each, each followed by a recall search, timing each POST
// /v1/frame round trip.
func (r *closedRun) warmIngest(rng *rand.Rand, seconds float64) (warmStats, error) {
	var st warmStats
	recall := make([]poolReq, frameCount)
	for f := range recall {
		qs := drawQueries(rng, r.fs.frames[neighborFrame(f)], recallQueries)
		p, err := newPoolReq(r.fs.refs[f], r.fs.frames[f], qs, approxOpts, recallQueries)
		if err != nil {
			return st, err
		}
		recall[f] = p
	}
	c := r.clients[0]
	end := now() + int64(seconds*1e9)
	for s := 1; s <= frameCount || now() < end; s++ {
		f := stepFrame(s)
		r.res.attempted++
		t0 := now()
		fr, err := postFrame(c, r.fs.bodies[f])
		t1 := now()
		if err != nil {
			r.res.failed++
			continue
		}
		r.held = f
		searchCall(c, &r.res.tally, recall[f].body, func(t *tally, rep *searchReply) bool {
			return checkReply(t, rep, r.fs.frames[f], &recall[f])
		})
		t2 := now()
		st.ingest = append(st.ingest, float64(t1-t0))
		st.build = append(st.build, fr.BuildSeconds*1e9)
		st.self = append(st.self, float64(t1-t0)-fr.BuildSeconds*1e9)
		st.loop += t2 - t0
		st.bucketMax = max(st.bucketMax, fr.BucketMax)
	}
	if len(st.ingest) == 0 {
		return st, fmt.Errorf("no warm-up frame was ingested")
	}
	return st, nil
}

// makePool draws the request pool from the frame next to the one the
// index holds, with reference answers from the in-process index.
func (r *closedRun) makePool(rng *rand.Rand) error {
	src := r.fs.frames[neighborFrame(r.held)]
	r.pool = make([]poolReq, closedPool)
	for i := range r.pool {
		qs := drawQueries(rng, src, closedQueries)
		p, err := newPoolReq(r.fs.refs[r.held], r.fs.frames[r.held], qs, approxOpts, 0)
		if err != nil {
			return err
		}
		r.pool[i] = p
	}
	return nil
}

// window runs the closed loop on every client for the given seconds,
// then checks the replies. With span logs (one per client) every
// request carries a traceparent and gets a quicknnd.search span.
func (r *closedRun) window(ctx context.Context, seconds float64, logs []*spanLog) windowStats {
	ref := r.fs.frames[r.held]
	start := now()
	end := start + int64(seconds*1e9)
	per := make([]windowStats, len(r.clients))
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			st := &per[i]
			for now() < end && ctx.Err() == nil {
				n := int(r.next.Add(1) - 1)
				p := &r.pool[n%closedPool]
				var (
					id obs.TraceID
					tp string
				)
				if logs != nil {
					id = traceFor(r.cfg.seed, n)
					tp = obs.FormatTraceParent(id, 1)
				}
				t0, t1, status, resp := sendSearch(c, &st.tally, p.body, tp)
				st.lat = append(st.lat, float64(t1-t0))
				st.done = append(st.done, t1)
				if resp != nil {
					st.pending = append(st.pending, pendingReply{resp, func(t *tally, rep *searchReply) bool {
						return checkReply(t, rep, ref, p)
					}})
				}
				if logs != nil {
					logs[i].add(searchSpan(status), t0, t1, -1, id)
				}
			}
		}(i, c)
	}
	wg.Wait()
	w := windowStats{elapsed: now() - start}
	pending := make([][]pendingReply, len(per))
	tallies := make([]*tally, len(per))
	for i := range per {
		pending[i], tallies[i] = per[i].pending, &per[i].tally
	}
	ok := judgeAll(pending, tallies)
	for i, st := range per {
		w.lat = append(w.lat, st.lat...)
		w.done = append(w.done, st.done...)
		w.ok += ok[i]
		w.tally.merge(st.tally)
	}
	r.res.merge(w.tally)
	return w
}

// ladderEngine replays requests first..first+n-1 of the stream through
// serve.Engine.Do, in process with quicknnd's default configuration and
// as many closed-loop callers as the HTTP run had, checking every
// answer. It returns the median Do latency in nanoseconds.
func (r *closedRun) ladderEngine(ctx context.Context, first, n int) (float64, error) {
	eng := serve.NewEngine(quicknndConfig())
	defer eng.Close(context.Background())
	if _, err := eng.Advance(ctx, r.fs.frames[r.held]); err != nil {
		return 0, fmt.Errorf("Engine.Advance: %w", err)
	}
	ref := r.fs.frames[r.held]
	var (
		next atomic.Int64
		wg   sync.WaitGroup
		mu   sync.Mutex
		lat  []float64
	)
	for c := 0; c < len(r.clients); c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var t tally
			var mine []float64
			for {
				i := int(next.Add(1) - 1)
				if i >= n {
					break
				}
				p := &r.pool[(first+i)%closedPool]
				t.attempted++
				t0 := now()
				qr, err := eng.Do(ctx, serve.Submission{Queries: p.queries, Opts: approxOpts})
				mine = append(mine, float64(now()-t0))
				if err != nil || !checkAnswers(&t, qr.Results, ref, p) {
					t.failed++
				}
			}
			mu.Lock()
			lat = append(lat, mine...)
			r.res.merge(t)
			mu.Unlock()
		}()
	}
	wg.Wait()
	return median(lat), nil
}

// ladderIndex replays the same requests through Index.QueryInto on one
// goroutine, checking every answer, and returns the median time per
// request in nanoseconds: the floor under the HTTP request latency.
func (r *closedRun) ladderIndex(first, n int) float64 {
	ix := r.fs.refs[r.held]
	ref := r.fs.frames[r.held]
	sc := quicknn.NewScratch()
	dst := make([][]quicknn.Neighbor, closedQueries)
	lat := make([]float64, 0, n)
	var t tally
	for i := 0; i < n; i++ {
		p := &r.pool[(first+i)%closedPool]
		t.attempted++
		t0 := now()
		var err error
		for qi, q := range p.queries {
			dst[qi], err = ix.QueryInto(context.Background(), q, approxOpts, sc, dst[qi][:0])
			if err != nil {
				break
			}
		}
		lat = append(lat, float64(now()-t0))
		if err != nil || !checkAnswers(&t, dst, ref, p) {
			t.failed++
		}
	}
	r.res.merge(t)
	return median(lat)
}

// checkAnswers compares in-process answers with p's reference answers.
func checkAnswers(t *tally, got [][]quicknn.Neighbor, ref []quicknn.Point, p *poolReq) bool {
	if len(got) != len(p.queries) {
		t.checked++
		t.wrong++
		return false
	}
	ok := true
	for qi, q := range p.queries {
		t.checked++
		if !validNeighbors(ref, q, got[qi]) || !sameDist(sortedDist(got[qi]), p.want[qi]) {
			t.wrong++
			ok = false
		}
	}
	return ok
}
