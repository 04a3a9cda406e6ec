package serve

import (
	"context"
	"math"
	"sync"
	"sync/atomic"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/faults"
	"github.com/quicknn/quicknn/internal/obs"
)

// request is one submitted search: a set of query points answered
// together, against a single epoch. A request travels through the
// submission queue whole — the batcher coalesces requests into batches
// but never splits one, so all of a request's queries are answered by
// the same snapshot (per-request epoch consistency).
type request struct {
	//lint:ignore ctxfirst a request carries its submitter's context through the queue so batch workers honor the caller's deadline, in the manner of net/http.Request
	ctx     context.Context
	queries []quicknn.Point
	opts    quicknn.QueryOptions

	// results is filled by batch workers, one slot per query.
	results [][]quicknn.Neighbor
	// backing is the flat result arena of the k-bounded modes: one
	// allocation of len(queries)*stride neighbor records, with
	// results[qi] a capacity-capped view of its stride-long region.
	// ModeRadius (unbounded result counts) leaves it nil and takes
	// per-query slices.
	backing []quicknn.Neighbor
	// stride is min(K, points of the epoch current at submission): no
	// query can return more neighbors than the index holds, so an
	// untrusted huge K costs memory in proportion to the index, not K.
	stride int
	// epochID records which snapshot answered the request.
	epochID uint64

	// pending counts unfinished queries; the last decrement closes done.
	pending atomic.Int64
	// failed flags the request so remaining workers skip its queries.
	failed atomic.Bool
	// err holds the first failure (type error).
	err atomic.Value
	// done is closed when every query finished or was skipped.
	done chan struct{}
	// submitted is the obs.MonotonicSeconds submission timestamp.
	submitted float64

	// Flight-recorder state. id is the engine-scoped request id stamped
	// into flight records and exemplars. pickedUp (batcher receive) and
	// dispatched (batch handoff) are plain fields written by the single
	// batcher goroutine before the batch goroutine is spawned, so the
	// worker that assembles the record observes them through the
	// goroutine-creation happens-before edge. batchPoints is the size of
	// the coalesced batch the request rode in.
	id          uint64
	pickedUp    float64
	dispatched  float64
	batchPoints int32
	// degradeLevel is the ladder level admission stamped on the request
	// (written before submit, read by the completing worker through the
	// same happens-before edges as pickedUp/dispatched).
	degradeLevel uint8
	// traceHi/traceLo carry the caller's W3C trace id (zero when none),
	// written before submit and read by the completing worker through
	// the same happens-before edges as degradeLevel.
	traceHi uint64
	traceLo uint64
	// execStart holds math.Float64bits of the first worker's execution
	// start (first-wins CAS); 0 until a worker reaches the request.
	execStart atomic.Uint64
	// Work counters accumulated across workers when recording is on.
	trav, buckets, scanned, inserts atomic.Uint64
}

// newRequest builds a request against an index of the given size (the
// current epoch's point count), which bounds its result stride.
func newRequest(ctx context.Context, queries []quicknn.Point, opts quicknn.QueryOptions, points int) *request {
	r := &request{
		ctx:       ctx,
		queries:   queries,
		opts:      opts,
		results:   make([][]quicknn.Neighbor, len(queries)),
		done:      make(chan struct{}),
		submitted: obs.MonotonicSeconds(),
	}
	if opts.Mode != quicknn.ModeRadius && opts.K > 0 {
		r.stride = min(opts.K, points)
		r.backing = make([]quicknn.Neighbor, len(queries)*r.stride)
	}
	r.pending.Store(int64(len(queries)))
	return r
}

// region returns query qi's slot in the flat result backing: a
// zero-length, capacity-stride view that QueryInto appends into without
// aliasing a sibling query's span. It never reallocates against the
// epoch the stride was sized from; a later, larger epoch can only
// reallocate the query's own slot. nil when the request has no backing
// (ModeRadius, or options that will fail validation anyway).
func (r *request) region(qi int) []quicknn.Neighbor {
	if r.backing == nil {
		return nil
	}
	k := r.stride
	return r.backing[qi*k : qi*k : (qi+1)*k]
}

// fail records the request's first error and flags it for skipping.
func (r *request) fail(err error) {
	if r.failed.CompareAndSwap(false, true) {
		r.err.Store(err)
	}
}

// failure returns the recorded error, nil when none.
func (r *request) failure() error {
	if err, ok := r.err.Load().(error); ok {
		return err
	}
	return nil
}

// markExecStart stamps the request's execution start the first time any
// worker reaches one of its queries. The common case (already stamped)
// is one atomic load; only the first worker pays a clock read.
//
//quicknnlint:recordpath
func (r *request) markExecStart() {
	if r.execStart.Load() != 0 {
		return
	}
	r.execStart.CompareAndSwap(0, math.Float64bits(obs.MonotonicSeconds()))
}

// finishOne marks one query finished; the last one completes the
// request: flight record, latency exemplar, outcome counter, done.
func (r *request) finishOne(e *Engine) {
	if r.pending.Add(-1) != 0 {
		return
	}
	now := obs.MonotonicSeconds()
	total := now - r.submitted
	if e.rec {
		e.recordFlight(r, now, total)
	}
	e.m.latency.ObserveWithExemplar(total, r.id, r.traceLo)
	if r.failure() != nil {
		e.m.requests.With("error").Inc()
	} else {
		e.m.requests.With("ok").Inc()
	}
	e.inflight.Add(-1)
	close(r.done)
}

// workItem addresses one query of one request inside a batch.
type workItem struct {
	req *request
	qi  int
}

// runBatch executes one coalesced batch against a pinned epoch: the
// flattened query list is partitioned into per-worker steal ranges and
// processed by up to `workers` goroutines (bounded globally by the
// engine's worker budget). An idle worker steals the back half of the
// fullest-looking victim it finds, so stragglers rebalance instead of
// stalling the batch the way static contiguous chunks would.
func (e *Engine) runBatch(ep *epoch, items []workItem, workers int) {
	if workers > len(items) {
		workers = len(items)
	}
	if workers < 1 {
		workers = 1
	}
	ranges := splitRanges(len(items), workers)
	var wg sync.WaitGroup
	wg.Add(len(items))
	var workersDone sync.WaitGroup
	for w := 0; w < workers; w++ {
		workersDone.Add(1)
		go func(me int) {
			defer workersDone.Done()
			e.sem <- struct{}{}
			defer func() { <-e.sem }()
			// One Scratch per worker for the worker's lifetime: every
			// query this goroutine answers reuses the same traversal
			// stack, heap, and candidate list (docs/performance.md).
			sc := getServeScratch()
			defer putServeScratch(sc)
			for {
				if idx, ok := ranges[me].popFront(); ok {
					e.runItem(ep, items[idx], sc)
					wg.Done()
					continue
				}
				// Own range drained: steal the back half of the first
				// non-empty victim, preferring the fullest.
				best, bestLen := -1, uint32(0)
				for off := 1; off < workers; off++ {
					v := (me + off) % workers
					if n := ranges[v].len(); n > bestLen {
						best, bestLen = v, n
					}
				}
				if best < 0 {
					return // nothing left anywhere
				}
				if lo, hi, ok := ranges[best].stealBack(); ok {
					ranges[me].install(lo, hi)
					e.m.steals.Inc()
				}
				// On a failed steal (victim drained meanwhile) rescan;
				// the next scan either finds work or exits.
			}
		}(w)
	}
	wg.Wait()
	workersDone.Wait()
}

// runItem answers one query of one request against the batch's epoch,
// honoring the request's deadline between queries. Results land in the
// request's flat backing via QueryInto with the worker's Scratch, so a
// warm steady state performs no per-query allocations.
func (e *Engine) runItem(ep *epoch, it workItem, sc *quicknn.Scratch) {
	req := it.req
	defer req.finishOne(e)
	e.flt.Inject(faults.WorkerStall)
	ep.san.checkLive(ep, "query")
	if req.failed.Load() {
		return // sibling query already failed; skip the rest cheaply
	}
	if err := req.ctx.Err(); err != nil {
		req.fail(err)
		return
	}
	if e.rec {
		req.markExecStart()
	}
	res, err := ep.index.QueryInto(req.ctx, req.queries[it.qi], req.opts, sc, req.region(it.qi))
	if err != nil {
		req.fail(err)
		return
	}
	req.results[it.qi] = res
	if e.rec {
		st := sc.LastStats()
		req.trav.Add(uint64(st.TraversalSteps))
		req.buckets.Add(uint64(st.BucketsVisited))
		req.scanned.Add(uint64(st.PointsScanned))
		req.inserts.Add(uint64(st.CandInserts))
	}
	e.m.queries.Inc()
}

// serveScratchPool hands each batch-worker goroutine a warm Scratch for
// its lifetime; capacities survive across batches and epochs.
var serveScratchPool = sync.Pool{New: func() interface{} { return quicknn.NewScratch() }}

func getServeScratch() *quicknn.Scratch  { return serveScratchPool.Get().(*quicknn.Scratch) }
func putServeScratch(s *quicknn.Scratch) { serveScratchPool.Put(s) }
