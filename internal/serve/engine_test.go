package serve

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/obs"
)

// taggedFrame returns n points scattered in the XY plane whose Z
// coordinate is the frame tag — every point of frame f carries Z == f,
// so any neighbor result identifies the epoch that produced it.
func taggedFrame(f, n int, rng *rand.Rand) []quicknn.Point {
	pts := make([]quicknn.Point, n)
	for i := range pts {
		pts[i] = quicknn.Point{
			X: rng.Float32() * 100,
			Y: rng.Float32() * 100,
			Z: float32(f),
		}
	}
	return pts
}

func mustAdvance(t *testing.T, e *Engine, f, n int, rng *rand.Rand) FrameInfo {
	t.Helper()
	info, err := e.Advance(context.Background(), taggedFrame(f, n, rng))
	if err != nil {
		t.Fatalf("Advance frame %d: %v", f, err)
	}
	return info
}

// TestConcurrentQueriesAcrossFrameSwaps is the epoch-snapshot race test:
// >= 4 concurrent query workers run against the engine while the frame
// loop performs >= 10 epoch swaps. Every request must succeed (zero
// dropped) and every request's neighbors must carry a single frame tag
// (zero cross-epoch results) — readers never observe a torn epoch.
func TestConcurrentQueriesAcrossFrameSwaps(t *testing.T) {
	const (
		queryWorkers = 6
		frameSwaps   = 14
		framePoints  = 1500
	)
	sink := obs.NewSink("serve-test")
	e := NewEngine(Config{
		QueueDepth:  4096,
		MaxBatch:    32,
		MaxWindow:   500 * time.Microsecond,
		Workers:     4,
		Maintenance: MaintRebuild,
		Obs:         sink,
	})
	rng := rand.New(rand.NewSource(7))
	mustAdvance(t, e, 1, framePoints, rng)

	var (
		stopQueries atomic.Bool
		served      atomic.Int64
		wg          sync.WaitGroup
	)
	errs := make(chan error, queryWorkers)
	for w := 0; w < queryWorkers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			qrng := rand.New(rand.NewSource(seed))
			for !stopQueries.Load() {
				queries := make([]quicknn.Point, 8)
				for i := range queries {
					queries[i] = quicknn.Point{X: qrng.Float32() * 100, Y: qrng.Float32() * 100}
				}
				res, err := e.QueryBatch(context.Background(), queries, quicknn.QueryOptions{K: 4})
				if err != nil {
					errs <- err
					return
				}
				// Per-request epoch consistency: every neighbor of every
				// query in this request must carry the same frame tag.
				tag := float32(-1)
				for _, nbrs := range res {
					if len(nbrs) == 0 {
						errs <- errors.New("empty neighbor list from a populated index")
						return
					}
					for _, nb := range nbrs {
						if tag < 0 {
							tag = nb.Point.Z
						}
						if nb.Point.Z != tag {
							errs <- errors.New("cross-epoch result: neighbors from two frames in one request")
							return
						}
					}
				}
				served.Add(1)
			}
		}(int64(100 + w))
	}

	frameRng := rand.New(rand.NewSource(8))
	for f := 2; f <= frameSwaps+1; f++ {
		mustAdvance(t, e, f, framePoints, frameRng)
		time.Sleep(2 * time.Millisecond) // let queries interleave with the swap
	}

	stopQueries.Store(true)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("query worker failed: %v", err)
	}
	if got := served.Load(); got == 0 {
		t.Fatal("no queries served during the swap storm")
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}

	// After the drain, only the current epoch may remain live: every
	// superseded epoch must have been retired by its last reader.
	snap := sink.Metrics.Snapshot()
	if fam, ok := snap.Find("quicknn_serve_epoch_live"); ok {
		if s, ok := fam.Find(); ok && s.Gauge != 1 {
			t.Errorf("quicknn_serve_epoch_live = %g after drain, want 1", s.Gauge)
		}
	} else {
		t.Error("quicknn_serve_epoch_live family missing")
	}
	for _, fam := range []string{"quicknn_serve_batch_size", "quicknn_serve_latency_seconds"} {
		if _, ok := snap.Find(fam); !ok {
			t.Errorf("metric family %s missing from snapshot", fam)
		}
	}
}

// TestBackpressureShedsTyped fills the bounded queue with no batcher
// draining it (white-box: the engine is built without starting the
// batcher) and checks the typed ErrOverloaded verdict.
func TestBackpressureShedsTyped(t *testing.T) {
	cfg := Config{QueueDepth: 2}.withDefaults()
	e := &Engine{
		cfg:   cfg,
		m:     newMetrics(nil),
		queue: make(chan *request, 2),
		sem:   make(chan struct{}, cfg.Workers),
		stop:  make(chan struct{}),
		live:  make(map[uint64]struct{}),
	}
	q := []quicknn.Point{{X: 1}}
	opts := quicknn.QueryOptions{K: 1}
	for i := 0; i < 2; i++ {
		if err := e.submit(newRequest(context.Background(), q, opts, opts.K)); err != nil {
			t.Fatalf("submit %d into empty queue: %v", i, err)
		}
	}
	err := e.submit(newRequest(context.Background(), q, opts, opts.K))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("submit into full queue = %v, want ErrOverloaded", err)
	}
}

// TestDeadlineSurfacesTyped parks a request inside a long batch window
// and checks that its deadline verdict is the typed context error.
func TestDeadlineSurfacesTyped(t *testing.T) {
	e := NewEngine(Config{
		MinWindow: 2 * time.Second, // park the batcher's gather phase
		MaxWindow: 4 * time.Second,
		MaxBatch:  1 << 20,
	})
	defer e.Close(context.Background())
	rng := rand.New(rand.NewSource(3))
	mustAdvance(t, e, 1, 300, rng)

	// First request arms the window; it will sit in gather until the
	// deadline fires.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := e.QueryBatch(ctx, []quicknn.Point{{X: 1, Y: 1}}, quicknn.QueryOptions{K: 2})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("QueryBatch under expired deadline = %v, want context.DeadlineExceeded", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("deadline verdict took %v, should return at the deadline, not the window", elapsed)
	}
}

// TestQueryBeforeFirstFrame checks the typed ErrNoIndex verdict.
func TestQueryBeforeFirstFrame(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close(context.Background())
	_, err := e.Query(context.Background(), quicknn.Point{}, quicknn.QueryOptions{K: 1})
	if !errors.Is(err, ErrNoIndex) {
		t.Fatalf("Query before Advance = %v, want ErrNoIndex", err)
	}
	if e.Epoch() != 0 {
		t.Fatalf("Epoch before Advance = %d, want 0", e.Epoch())
	}
	if e.Index() != nil {
		t.Fatal("Index before Advance should be nil")
	}
}

// TestClosedEngineRejectsTyped checks submissions and advances after
// Close fail with ErrClosed, and that Close is idempotent.
func TestClosedEngineRejectsTyped(t *testing.T) {
	e := NewEngine(Config{})
	rng := rand.New(rand.NewSource(5))
	mustAdvance(t, e, 1, 200, rng)
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("Close: %v", err)
	}
	if err := e.Close(context.Background()); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if _, err := e.Query(context.Background(), quicknn.Point{}, quicknn.QueryOptions{K: 1}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Query after Close = %v, want ErrClosed", err)
	}
	if _, err := e.Advance(context.Background(), taggedFrame(2, 10, rng)); !errors.Is(err, ErrClosed) {
		t.Fatalf("Advance after Close = %v, want ErrClosed", err)
	}
}

// TestQueryMatchesDirectSearch checks the batched path returns exactly
// what a direct search against the same snapshot returns.
func TestQueryMatchesDirectSearch(t *testing.T) {
	e := NewEngine(Config{Maintenance: MaintIncremental})
	defer e.Close(context.Background())
	rng := rand.New(rand.NewSource(11))
	mustAdvance(t, e, 1, 800, rng)
	mustAdvance(t, e, 2, 800, rng) // exercise the incremental snapshot path

	queries := taggedFrame(0, 32, rand.New(rand.NewSource(12)))
	got, err := e.QueryBatch(context.Background(), queries, quicknn.QueryOptions{K: 3})
	if err != nil {
		t.Fatalf("QueryBatch: %v", err)
	}
	ix := e.Index()
	for qi, q := range queries {
		want := ix.Search(q, 3)
		if len(got[qi]) != len(want) {
			t.Fatalf("query %d: %d neighbors, want %d", qi, len(got[qi]), len(want))
		}
		for i := range want {
			if got[qi][i] != want[i] {
				t.Fatalf("query %d neighbor %d: got %+v, want %+v", qi, i, got[qi][i], want[i])
			}
		}
	}
}

// TestDoHugeKBounded is the huge-K regression at the serving layer: a
// request's result stride is min(K, points of the current epoch), so a
// K far above the index size cannot allocate len(queries)*K neighbors
// (128 MiB here; a K near 2^26 ran the process out of memory).
func TestDoHugeKBounded(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close(context.Background())
	mustAdvance(t, e, 1, 1000, rand.New(rand.NewSource(31)))
	queries := taggedFrame(1, 64, rand.New(rand.NewSource(32)))

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	res, err := e.Do(context.Background(), Submission{Queries: queries, Opts: quicknn.QueryOptions{K: 1 << 16, Mode: quicknn.ModeExact}})
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta > 16<<20 {
		t.Errorf("Do with K=65536 on 1000 points allocated %d bytes, want <= 16 MiB", delta)
	}
	for qi, nbrs := range res.Results {
		if len(nbrs) != 1000 {
			t.Fatalf("query %d: %d neighbors, want all 1000 points", qi, len(nbrs))
		}
	}
}

// TestRegionGrowthStaysInItsSlot pins the stride contract: a query that
// finds more neighbors than its stride (a later, larger epoch answered)
// reallocates its own slot and never writes into a sibling's.
func TestRegionGrowthStaysInItsSlot(t *testing.T) {
	r := newRequest(context.Background(), make([]quicknn.Point, 2), quicknn.QueryOptions{K: 8}, 3)
	grown := r.region(0)
	for i := 0; i < 8; i++ {
		grown = append(grown, quicknn.Neighbor{Index: i + 1})
	}
	if len(grown) != 8 || cap(r.region(0)) != 3 {
		t.Fatalf("grown slot len %d, stride %d; want 8 and 3", len(grown), cap(r.region(0)))
	}
	for i, nb := range r.backing[3:] { // query 1's slot
		if nb != (quicknn.Neighbor{}) {
			t.Fatalf("query 1 slot[%d] = %+v written through query 0's grown slot", i, nb)
		}
	}
}

// TestAdvanceRejectsEmptyFrame checks the typed empty-input verdict.
func TestAdvanceRejectsEmptyFrame(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close(context.Background())
	if _, err := e.Advance(context.Background(), nil); !errors.Is(err, quicknn.ErrEmptyInput) {
		t.Fatalf("Advance(nil) = %v, want ErrEmptyInput", err)
	}
}

// TestAdvanceRejectsNonFiniteFrame checks that a frame with a NaN or
// infinite coordinate is refused with quicknn.ErrInvalidPoint, both as the
// first frame and after one, and that a refused frame leaves the current
// epoch serving.
func TestAdvanceRejectsNonFiniteFrame(t *testing.T) {
	e := NewEngine(Config{})
	defer e.Close(context.Background())
	ctx := context.Background()
	rng := rand.New(rand.NewSource(1))
	frame := taggedFrame(1, 500, rng)
	frame[9].Y = float32(math.Inf(-1))
	if _, err := e.Advance(ctx, frame); !errors.Is(err, quicknn.ErrInvalidPoint) {
		t.Fatalf("Advance(first frame with -Inf) = %v, want ErrInvalidPoint", err)
	}
	if e.Index() != nil {
		t.Fatal("refused first frame installed an index")
	}
	mustAdvance(t, e, 2, 500, rng)
	cur := e.Index()
	frame = taggedFrame(3, 500, rng)
	frame[499].X = float32(math.NaN())
	if _, err := e.Advance(ctx, frame); !errors.Is(err, quicknn.ErrInvalidPoint) {
		t.Fatalf("Advance(frame with NaN) = %v, want ErrInvalidPoint", err)
	}
	if e.Index() != cur {
		t.Fatal("refused frame replaced the current epoch")
	}
}

// TestCloseDrainsAcceptedWork submits a request and races Close against
// it: the accepted request must still be answered, not dropped.
func TestCloseDrainsAcceptedWork(t *testing.T) {
	e := NewEngine(Config{MinWindow: 20 * time.Millisecond, MaxWindow: 40 * time.Millisecond, MaxBatch: 1 << 20})
	rng := rand.New(rand.NewSource(21))
	mustAdvance(t, e, 1, 300, rng)

	type answer struct {
		res [][]quicknn.Neighbor
		err error
	}
	got := make(chan answer, 1)
	go func() {
		res, err := e.QueryBatch(context.Background(), []quicknn.Point{{X: 2, Y: 3}}, quicknn.QueryOptions{K: 2})
		got <- answer{res, err}
	}()
	time.Sleep(5 * time.Millisecond) // let the request reach the queue/gather
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := e.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	a := <-got
	if a.err != nil {
		t.Fatalf("accepted request dropped during drain: %v", a.err)
	}
	if len(a.res) != 1 || len(a.res[0]) == 0 {
		t.Fatalf("drained request answered with %d/%v results", len(a.res), a.res)
	}
}
