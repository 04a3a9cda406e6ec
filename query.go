package quicknn

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/quicknn/quicknn/internal/kdtree"
)

// QueryMode selects which of the paper's search algorithms a Query runs.
type QueryMode int

const (
	// ModeApprox is the paper's single-bucket approximate search (the
	// hardware TSearch datapath): traverse to the query's bucket and scan
	// only it. The default.
	ModeApprox QueryMode = iota
	// ModeExact is the exact k-nearest-neighbor search via backtracking.
	ModeExact
	// ModeChecks is the FLANN-style budgeted search: explore the nearest
	// deferred branches until QueryOptions.Checks reference points have
	// been examined.
	ModeChecks
	// ModeRadius returns every point within QueryOptions.Radius of the
	// query (exact, via backtracking), nearest first. K is ignored.
	ModeRadius
)

// String names the mode for logs and errors.
func (m QueryMode) String() string {
	switch m {
	case ModeApprox:
		return "approx"
	case ModeExact:
		return "exact"
	case ModeChecks:
		return "checks"
	case ModeRadius:
		return "radius"
	default:
		return fmt.Sprintf("mode(%d)", int(m))
	}
}

// QueryOptions parameterizes Query and QueryBatch. The zero value is a
// valid approximate search except for K, which must be positive in every
// mode but ModeRadius.
type QueryOptions struct {
	// K is the number of neighbors returned (ignored by ModeRadius).
	K int
	// Mode selects the search algorithm (default ModeApprox).
	Mode QueryMode
	// Checks is the reference-point budget of ModeChecks.
	Checks int
	// Radius is the search radius of ModeRadius, in meters.
	Radius float64
	// Workers bounds QueryBatch's parallel fan-out (<= 0 = GOMAXPROCS).
	// Single-query Query ignores it.
	Workers int
}

// validate reports the first out-of-domain option.
func (o QueryOptions) validate() error {
	switch o.Mode {
	case ModeApprox, ModeExact, ModeChecks:
		if o.K <= 0 {
			return fmt.Errorf("%w: K = %d must be > 0 for mode %v", ErrInvalidOptions, o.K, o.Mode)
		}
		if o.Mode == ModeChecks && o.Checks < 0 {
			return fmt.Errorf("%w: Checks = %d must be >= 0", ErrInvalidOptions, o.Checks)
		}
	case ModeRadius:
		if o.Radius < 0 {
			return fmt.Errorf("%w: Radius = %g must be >= 0", ErrInvalidOptions, o.Radius)
		}
	default:
		return fmt.Errorf("%w: unknown query mode %v", ErrInvalidOptions, o.Mode)
	}
	return nil
}

// Query runs one search against the index under the given options. It is
// the unified, context-aware entry point behind the Search/SearchExact/
// SearchChecks/SearchRadius wrappers: invalid options surface as errors
// wrapping ErrInvalidOptions, and ctx cancellation is honored between
// bucket visits (the backtracking modes poll ctx once per bucket scan),
// returning ctx.Err(). Concurrent Query calls are safe as long as no
// Update runs concurrently.
//
// Query borrows a pooled Scratch, so it allocates only the returned
// slice; callers on the hot path can go all the way to zero allocations
// with QueryInto.
func (ix *Index) Query(ctx context.Context, q Point, opts QueryOptions) ([]Neighbor, error) {
	sc := getQueryScratch()
	res, err := ix.QueryInto(ctx, q, opts, sc, nil)
	putQueryScratch(sc)
	return res, err
}

// QueryInto is the allocation-free form of Query: results are appended to
// dst (which may be nil) and all traversal state lives in sc. With a warm
// Scratch, a dst of capacity >= K, and an uncancellable ctx
// (context.Background), the non-radius modes perform zero heap
// allocations per call — the property the serving engine's batch workers
// and the AllocsPerRun guards in hotpath_alloc_test.go rely on.
//
// On error (including cancellation) dst is returned unextended; a nil
// dst comes back nil.
func (ix *Index) QueryInto(ctx context.Context, q Point, opts QueryOptions, sc *Scratch, dst []Neighbor) ([]Neighbor, error) {
	if err := ctx.Err(); err != nil {
		return dst, err
	}
	if err := opts.validate(); err != nil {
		return dst, err
	}
	if !q.Finite() {
		return dst, fmt.Errorf("%w: query is (%g, %g, %g)", ErrInvalidPoint, q.X, q.Y, q.Z)
	}
	if sc == nil || sc.s == nil {
		return dst, fmt.Errorf("%w: QueryInto requires a Scratch from NewScratch", ErrInvalidOptions)
	}
	// Only pay for the cancellation closure when ctx can actually be
	// cancelled: Background/TODO have a nil Done channel, and the kdtree
	// searches treat a nil stop as "never".
	var stop func() bool
	if ctx.Done() != nil {
		stop = func() bool { return ctx.Err() != nil }
	}
	var (
		res     []Neighbor
		st      kdtree.SearchStats
		stopped bool
	)
	switch opts.Mode {
	case ModeApprox:
		res, st = ix.tree.SearchApproxInto(q, opts.K, sc.s, dst)
	case ModeExact:
		res, st, stopped = ix.tree.SearchExactStopInto(q, opts.K, sc.s, dst, stop)
	case ModeChecks:
		res, st, stopped = ix.tree.SearchChecksStopInto(q, opts.K, opts.Checks, sc.s, dst, stop)
	case ModeRadius:
		res, st, stopped = ix.tree.SearchRadiusStopInto(q, opts.Radius, sc.s, dst, stop)
	}
	sc.last = QueryStats{
		TraversalSteps: st.TraversalSteps,
		PointsScanned:  st.PointsScanned,
		BucketsVisited: st.BucketsVisited,
		CandInserts:    sc.s.CandInserts(),
	}
	if stopped {
		return res, ctx.Err()
	}
	return res, nil
}

// batchGrain is the number of queries a QueryBatch worker claims per
// atomic fetch. Small enough that cancellation is honored promptly and
// stragglers rebalance, large enough that the counter is not contended.
const batchGrain = 16

// QueryBatch runs one search per query under the given options, fanned
// out across opts.Workers goroutines (GOMAXPROCS when <= 0). Queries are
// claimed dynamically in batchGrain-sized chunks rather than static
// contiguous shards, so an unlucky worker cannot stall the batch; ctx is
// checked between chunks and inside each query's bucket loop, and the
// first cancellation abandons the batch with ctx.Err(). The returned
// slice is parallel to queries.
//
// Memory layout: in the k-bounded modes every result neighbor lives in
// one flat backing array allocated up front (len(queries)*K records);
// out[qi] is a capacity-capped view of its stride-K region, so workers
// append into disjoint spans with no per-query slice allocations and no
// false sharing of slice headers. ModeRadius, whose result count is
// data-dependent, falls back to per-query slices. Each worker keeps one
// pooled Scratch for the whole batch.
func (ix *Index) QueryBatch(ctx context.Context, queries []Point, opts QueryOptions) ([][]Neighbor, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	if err := opts.validate(); err != nil {
		return nil, err
	}
	if err := CheckPoints(queries); err != nil {
		return nil, err
	}
	if len(queries) == 0 {
		return [][]Neighbor{}, nil
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if max := (len(queries) + batchGrain - 1) / batchGrain; workers > max {
		workers = max
	}
	out := make([][]Neighbor, len(queries))
	// Flat result backing for the k-bounded modes: query qi appends into
	// backing[qi*stride : qi*stride : (qi+1)*stride] — zero-length regions
	// that can never reallocate (each mode returns at most min(K, Len())
	// neighbors) and never alias a neighboring query's span. Sizing by the
	// index rather than K keeps a huge K from allocating beyond it.
	var backing []Neighbor
	stride := min(opts.K, ix.Len())
	if opts.Mode != ModeRadius {
		backing = make([]Neighbor, len(queries)*stride)
	}
	region := func(qi int) []Neighbor {
		if backing == nil {
			return nil
		}
		return backing[qi*stride : qi*stride : (qi+1)*stride]
	}
	if opts.Mode == ModeApprox {
		// The approximate mode runs on the kd-tree's leaf-grouped batch
		// executor (docs/performance.md): queries are pre-sorted by primary
		// bucket so each arena span is scanned while cache-hot for all of
		// its queries, serially or fanned out over the same worker count.
		// Results and stats are identical to the per-query loop below —
		// grouping is a pure reordering — so this is a fast path, not a
		// semantic fork.
		for qi := range out {
			out[qi] = region(qi)
		}
		var stop func() bool
		if ctx.Done() != nil {
			stop = func() bool { return ctx.Err() != nil }
		}
		if _, stopped := ix.tree.SearchApproxBatch(queries, opts.K, workers, out, stop); stopped {
			return nil, ctx.Err()
		}
		return out, nil
	}
	if workers <= 1 {
		sc := getQueryScratch()
		defer putQueryScratch(sc)
		for qi := range queries {
			if qi%batchGrain == 0 {
				if err := ctx.Err(); err != nil {
					return nil, err
				}
			}
			res, err := ix.QueryInto(ctx, queries[qi], opts, sc, region(qi))
			if err != nil {
				return nil, err
			}
			out[qi] = res
		}
		return out, nil
	}
	var (
		next     atomic.Int64
		failed   atomic.Bool
		firstErr atomic.Value // error
		wg       sync.WaitGroup
	)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sc := getQueryScratch()
			defer putQueryScratch(sc)
			for {
				lo := int(next.Add(batchGrain)) - batchGrain
				if lo >= len(queries) || failed.Load() {
					return
				}
				hi := lo + batchGrain
				if hi > len(queries) {
					hi = len(queries)
				}
				if err := ctx.Err(); err != nil {
					if failed.CompareAndSwap(false, true) {
						firstErr.Store(err)
					}
					return
				}
				for qi := lo; qi < hi; qi++ {
					res, err := ix.QueryInto(ctx, queries[qi], opts, sc, region(qi))
					if err != nil {
						if failed.CompareAndSwap(false, true) {
							firstErr.Store(err)
						}
						return
					}
					out[qi] = res
				}
			}
		}()
	}
	wg.Wait()
	if failed.Load() {
		return nil, firstErr.Load().(error)
	}
	return out, nil
}
