package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"time"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/obs"
)

// The serve-mixed workload is an open loop of reads beside writes:
// POST /v1/frame with the next 30k-point frame at frameHz under
// quicknnd's default (rebuild) maintenance, and POST /v1/search with
// mixedQueries exact k=8 queries at mixedRate requests per second, at
// fixed intervals. nproc senders, one connection each, take the events in due order and
// send each no earlier than its due time; latency is timed from the due
// time, so a stalled sender delays and is charged for what queues
// behind it. At most one frame is in flight, as from a single sensor.

const (
	// mixedRate is fixed at about half the rate at which the search
	// p99 turns up on a 2-vCPU host (NOTES.md). It is not a multiple of
	// frameHz, so the searches drift through every phase of the frame
	// cycle instead of meeting the frames at the same few offsets.
	mixedRate    = 151.0
	frameHz      = 10.0
	mixedQueries = 64
	// mixedPool requests are drawn per run; request j draws its queries
	// from frame j % frameCount.
	mixedPool = 32
)

var exactOpts = quicknn.QueryOptions{K: k, Mode: quicknn.ModeExact}

// mixedReq is one pool request with its reference answers on every
// frame, since the epoch that answers it depends on timing.
type mixedReq [frameCount]poolReq

type mixedRun struct {
	cfg     config
	fs      *frameSet
	res     *result
	pool    []mixedReq
	clients []*client

	// frameMu keeps one frame in flight; step is the next frame step.
	frameMu sync.Mutex
	step    int
	// epochMu guards epochFrame, the frame each epoch holds. An entry
	// is written before its frame is posted, so it exists before any
	// search can be answered from that epoch.
	epochMu    sync.RWMutex
	epochFrame map[uint64]int
	lastEpoch  uint64
}

// mixedStats is what one open-loop window measured, in nanoseconds.
type mixedStats struct {
	search, frame, late []float64
	// searchLate is the searches' part of late.
	searchLate         []float64
	searchDone         []int64
	frameSelf, build   []float64
	okSearch, okFrames int
	bucketMax          int
	elapsed            int64
	tally              tally
	// pending holds the window's search replies until it ends.
	pending []pendingReply
}

func runServeMixed(ctx context.Context, cfg config) (*result, error) {
	fs, err := makeFrameSet(cfg.seed)
	if err != nil {
		return nil, err
	}
	res := newResult()
	r := &mixedRun{cfg: cfg, fs: fs, res: res, step: 1, epochFrame: map[uint64]int{1: 0}, lastEpoch: 1}
	if err := r.makePool(); err != nil {
		return nil, err
	}
	d, setups, err := boot(cfg, fs, &res.tally)
	if err != nil {
		return nil, err
	}
	defer d.stop()
	for i := 0; i < runtime.NumCPU(); i++ {
		c := newClient(d.base)
		defer c.close()
		probe(c, &res.tally, fs, 0) // opens the connection before timing
		r.clients = append(r.clients, c)
	}
	res.set("setup_s", median(setups)/1e9)

	if !cfg.trace {
		resetPeakRSS(d.pid())
		st := r.window(ctx, cfg.seconds, nil)
		ps, err := readProc(d.pid())
		if err != nil {
			return nil, err
		}
		secs := float64(st.elapsed) / 1e9
		res.set("search_p50_ms", quantile(nsTo(st.search, time.Millisecond), 0.5))
		res.set("search_p99_ms", tailQuantile(nsTo(st.search, time.Millisecond), st.searchDone, 0.99))
		res.set("search_rps", float64(st.okSearch)/secs)
		res.set("ingest_p50_ms", quantile(nsTo(st.frame, time.Millisecond), 0.5))
		res.set("ingest_p90_ms", quantile(nsTo(st.frame, time.Millisecond), 0.9))
		res.set("drive_fps", float64(st.okFrames)/secs)
		res.set("mem_mb", ps.hwmMB)
		return res, ctx.Err()
	}

	base := r.window(ctx, cfg.seconds/4, nil)
	c := r.clients[0]
	before, err := readCounters(c, d.pid())
	if err != nil {
		return nil, err
	}
	res.spans = &spanSet{}
	logs := make([]*spanLog, len(r.clients))
	for i := range logs {
		logs[i] = res.spans.newLog(fmt.Sprintf("sender-%d", i))
	}
	st := r.window(ctx, cfg.seconds, logs)
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
	searches := st.tally.attempted - len(st.frame)
	setDaemonLayer(res, before, after, searches, st.tally)
	setIngestLayer(res, before.metrics, after.metrics)
	phases := setFlightLayer(res, joined)
	searchSelf := median(nsTo(res.spans.selfTimes()["quicknnd.search"], time.Microsecond))
	late := median(nsTo(st.searchLate, time.Microsecond))
	p50 := median(nsTo(st.search, time.Microsecond))
	res.set("quicknnd.search_self_us", searchSelf)
	res.set("quicknnd.frame_self_ms", median(nsTo(st.frameSelf, time.Millisecond)))
	res.set("serve.advance_ms", median(nsTo(st.build, time.Millisecond)))
	res.set("kdtree.bucket_max", float64(st.bucketMax))
	res.set("bench.gen_late_p99_ms", quantile(nsTo(st.late, time.Millisecond), 0.99))
	res.set("bench.op_p50_traced_ms", p50/1e3)
	res.set("bench.accounted_frac", (late+searchSelf+phases)/p50)
	res.set("bench.trace_overhead", median(st.search)/median(base.search))
	return res, ctx.Err()
}

// makePool draws the request pool and the brute-force answers of every
// request on every frame; all of them feed recall_at_8.
func (r *mixedRun) makePool() error {
	rng := rand.New(rand.NewSource(r.cfg.seed))
	r.pool = make([]mixedReq, mixedPool)
	for j := range r.pool {
		src := r.fs.frames[j%frameCount]
		qs := drawQueries(rng, src, mixedQueries)
		for f := range r.pool[j] {
			p, err := newPoolReq(r.fs.refs[f], r.fs.frames[f], qs, exactOpts, mixedQueries)
			if err != nil {
				return err
			}
			r.pool[j][f] = p
		}
	}
	return nil
}

// event is one scheduled operation: a frame post or search n.
type event struct {
	due   int64
	frame bool
	n     int
}

// window runs the open-loop schedule for the given seconds. With span
// logs (one per sender) each operation gets a bench.due span from its
// due time to its answer, with the quicknnd.search or quicknnd.frame
// round trip under it, and searches carry a traceparent.
func (r *mixedRun) window(ctx context.Context, seconds float64, logs []*spanLog) mixedStats {
	start := now()
	end := start + int64(seconds*1e9)
	var (
		mu                 sync.Mutex
		nFrames, nSearches int
	)
	take := func() (event, bool) {
		mu.Lock()
		defer mu.Unlock()
		fd := start + int64(float64(nFrames)*1e9/frameHz)
		sd := start + int64(float64(nSearches)*1e9/mixedRate)
		if min(fd, sd) >= end || ctx.Err() != nil {
			return event{}, false
		}
		if fd <= sd {
			nFrames++
			return event{due: fd, frame: true}, true
		}
		nSearches++
		return event{due: sd, n: nSearches - 1}, true
	}
	per := make([]mixedStats, len(r.clients))
	var wg sync.WaitGroup
	for i, c := range r.clients {
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			st := &per[i]
			var log *spanLog
			if logs != nil {
				log = logs[i]
			}
			for {
				ev, ok := take()
				if !ok {
					return
				}
				sleepUntil(ev.due)
				if ev.frame {
					r.postFrame(c, st, ev, log)
				} else {
					r.search(c, st, ev, log)
				}
			}
		}(i, c)
	}
	wg.Wait()
	w := mixedStats{elapsed: now() - start}
	pending := make([][]pendingReply, len(per))
	tallies := make([]*tally, len(per))
	for i := range per {
		pending[i], tallies[i] = per[i].pending, &per[i].tally
	}
	for i, n := range judgeAll(pending, tallies) {
		per[i].okSearch = n
	}
	for _, st := range per {
		w.search = append(w.search, st.search...)
		w.searchDone = append(w.searchDone, st.searchDone...)
		w.searchLate = append(w.searchLate, st.searchLate...)
		w.frame = append(w.frame, st.frame...)
		w.late = append(w.late, st.late...)
		w.frameSelf = append(w.frameSelf, st.frameSelf...)
		w.build = append(w.build, st.build...)
		w.okSearch += st.okSearch
		w.okFrames += st.okFrames
		w.bucketMax = max(w.bucketMax, st.bucketMax)
		w.tally.merge(st.tally)
	}
	r.res.merge(w.tally)
	return w
}

// postFrame sends the next frame of the drive.
func (r *mixedRun) postFrame(c *client, st *mixedStats, ev event, log *spanLog) {
	r.frameMu.Lock()
	defer r.frameMu.Unlock()
	f := stepFrame(r.step)
	r.step++
	r.epochMu.Lock()
	epoch := r.lastEpoch + 1
	r.epochFrame[epoch] = f
	r.epochMu.Unlock()

	st.tally.attempted++
	t0 := now()
	fr, err := postFrame(c, r.fs.bodies[f])
	t1 := now()
	st.frame = append(st.frame, float64(t1-ev.due))
	st.late = append(st.late, float64(t0-ev.due))
	if err != nil || fr.Epoch != epoch {
		st.tally.failed++
		return
	}
	r.epochMu.Lock()
	r.lastEpoch = epoch
	r.epochMu.Unlock()
	st.okFrames++
	build := fr.BuildSeconds * 1e9
	st.frameSelf = append(st.frameSelf, float64(t1-t0)-build)
	st.build = append(st.build, build)
	st.bucketMax = max(st.bucketMax, fr.BucketMax)
	if log != nil {
		root := log.add("bench.due", ev.due, t1, -1, obs.TraceID{})
		rt := log.add("quicknnd.frame", t0, t1, root, obs.TraceID{})
		b := int64(build)
		at := t0 + (t1-t0-b)/2
		log.add("serve.advance", at, at+b, rt, obs.TraceID{})
	}
}

// search sends search ev.n. Its reply is checked when the window ends,
// against the frame of the epoch that answered it.
func (r *mixedRun) search(c *client, st *mixedStats, ev event, log *spanLog) {
	req := &r.pool[ev.n%mixedPool]
	var (
		id obs.TraceID
		tp string
	)
	if log != nil {
		id = traceFor(r.cfg.seed, ev.n)
		tp = obs.FormatTraceParent(id, 1)
	}
	t0, t1, status, resp := sendSearch(c, &st.tally, req[0].body, tp)
	st.search = append(st.search, float64(t1-ev.due))
	st.searchDone = append(st.searchDone, t1)
	st.late = append(st.late, float64(t0-ev.due))
	st.searchLate = append(st.searchLate, float64(t0-ev.due))
	if resp != nil {
		st.pending = append(st.pending, pendingReply{resp, func(t *tally, rep *searchReply) bool {
			r.epochMu.RLock()
			f, known := r.epochFrame[rep.Epoch]
			r.epochMu.RUnlock()
			if !known {
				t.checked++
				t.wrong++
				return false
			}
			return checkReply(t, rep, r.fs.frames[f], &req[f])
		}})
	}
	if log != nil {
		root := log.add("bench.due", ev.due, t1, -1, id)
		log.add(searchSpan(status), t0, t1, root, id)
	}
}
