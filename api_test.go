package quicknn

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

func apiCloud(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Point{X: rng.Float32() * 50, Y: rng.Float32() * 50, Z: rng.Float32() * 4}
	}
	return pts
}

func TestBuildIndexErrors(t *testing.T) {
	if _, err := BuildIndex(nil); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("BuildIndex(nil) = %v, want ErrEmptyInput", err)
	}
	if _, err := BuildIndex([]Point{}); !errors.Is(err, ErrEmptyInput) {
		t.Errorf("BuildIndex(empty) = %v, want ErrEmptyInput", err)
	}
	pts := apiCloud(100, 1)
	if _, err := BuildIndex(pts, WithBucketSize(-1)); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("BuildIndex(bucket=-1) = %v, want ErrInvalidOptions", err)
	}
	if _, err := BuildIndex(pts, WithSampleSize(-5)); !errors.Is(err, ErrInvalidOptions) {
		t.Errorf("BuildIndex(sample=-5) = %v, want ErrInvalidOptions", err)
	}
	ix, err := BuildIndex(pts, WithBucketSize(64), WithSeed(7))
	if err != nil {
		t.Fatalf("BuildIndex(valid) = %v", err)
	}
	if ix.Len() != len(pts) {
		t.Fatalf("Len = %d, want %d", ix.Len(), len(pts))
	}
}

func TestNewIndexPanicsOnEmpty(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewIndex(nil) did not panic")
		}
	}()
	NewIndex(nil)
}

// TestQueryMatchesLegacySearch checks each QueryMode returns exactly
// what the corresponding legacy Search* method returns — the wrappers
// and the unified path must be the same computation.
func TestQueryMatchesLegacySearch(t *testing.T) {
	pts := apiCloud(2000, 3)
	ix, err := BuildIndex(pts, WithBucketSize(128))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	queries := apiCloud(40, 4)
	for _, q := range queries {
		for name, pair := range map[string]struct {
			got  func() ([]Neighbor, error)
			want func() []Neighbor
		}{
			"approx": {
				func() ([]Neighbor, error) { return ix.Query(ctx, q, QueryOptions{K: 5}) },
				func() []Neighbor { return ix.Search(q, 5) },
			},
			"exact": {
				func() ([]Neighbor, error) { return ix.Query(ctx, q, QueryOptions{K: 5, Mode: ModeExact}) },
				func() []Neighbor { return ix.SearchExact(q, 5) },
			},
			"checks": {
				func() ([]Neighbor, error) {
					return ix.Query(ctx, q, QueryOptions{K: 5, Mode: ModeChecks, Checks: 200})
				},
				func() []Neighbor { return ix.SearchChecks(q, 5, 200) },
			},
			"radius": {
				func() ([]Neighbor, error) {
					return ix.Query(ctx, q, QueryOptions{Mode: ModeRadius, Radius: 3})
				},
				func() []Neighbor { return ix.SearchRadius(q, 3) },
			},
		} {
			got, err := pair.got()
			if err != nil {
				t.Fatalf("%s: Query error: %v", name, err)
			}
			want := pair.want()
			if len(got) != len(want) {
				t.Fatalf("%s: %d neighbors, want %d", name, len(got), len(want))
			}
			for i := range want {
				if got[i] != want[i] {
					t.Fatalf("%s neighbor %d: got %+v, want %+v", name, i, got[i], want[i])
				}
			}
		}
	}
}

func TestQueryOptionValidation(t *testing.T) {
	ix, err := BuildIndex(apiCloud(200, 5))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	for name, opts := range map[string]QueryOptions{
		"zero k":          {},
		"negative k":      {K: -3},
		"negative radius": {Mode: ModeRadius, Radius: -1},
		"unknown mode":    {K: 1, Mode: QueryMode(99)},
	} {
		if _, err := ix.Query(ctx, Point{}, opts); !errors.Is(err, ErrInvalidOptions) {
			t.Errorf("%s: Query = %v, want ErrInvalidOptions", name, err)
		}
	}
}

func TestQueryHonorsCancellation(t *testing.T) {
	ix, err := BuildIndex(apiCloud(500, 6))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // pre-cancelled: the query must not run
	if _, err := ix.Query(ctx, Point{X: 1}, QueryOptions{K: 3}); !errors.Is(err, context.Canceled) {
		t.Errorf("Query(cancelled) = %v, want context.Canceled", err)
	}
	if _, err := ix.QueryBatch(ctx, apiCloud(64, 7), QueryOptions{K: 3}); !errors.Is(err, context.Canceled) {
		t.Errorf("QueryBatch(cancelled) = %v, want context.Canceled", err)
	}
}

func TestQueryBatchMatchesSequential(t *testing.T) {
	ix, err := BuildIndex(apiCloud(1500, 8), WithBucketSize(128))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	queries := apiCloud(100, 9)
	batch, err := ix.QueryBatch(ctx, queries, QueryOptions{K: 4, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(batch) != len(queries) {
		t.Fatalf("%d results, want %d", len(batch), len(queries))
	}
	for qi, q := range queries {
		want := ix.Search(q, 4)
		if len(batch[qi]) != len(want) {
			t.Fatalf("query %d: %d neighbors, want %d", qi, len(batch[qi]), len(want))
		}
		for i := range want {
			if batch[qi][i] != want[i] {
				t.Fatalf("query %d neighbor %d: got %+v, want %+v", qi, i, batch[qi][i], want[i])
			}
		}
	}
	empty, err := ix.QueryBatch(ctx, nil, QueryOptions{K: 4})
	if err != nil || len(empty) != 0 {
		t.Fatalf("QueryBatch(nil) = %v, %v; want empty, nil", empty, err)
	}
}

// TestQueryBatchHugeKBounded is the huge-K regression: result backing
// is sized by min(K, Len()), so a K far above the index size costs
// memory in proportion to the index. Sized by K, this batch would
// allocate 64*65536 neighbors (128 MiB); a K near 2^26 ran the process
// out of memory.
func TestQueryBatchHugeKBounded(t *testing.T) {
	ix, err := BuildIndex(apiCloud(1000, 21))
	if err != nil {
		t.Fatal(err)
	}
	queries := apiCloud(64, 22)
	for _, workers := range []int{1, 2} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		res, err := ix.QueryBatch(context.Background(), queries, QueryOptions{K: 1 << 16, Mode: ModeExact, Workers: workers})
		runtime.ReadMemStats(&after)
		if err != nil {
			t.Fatalf("workers=%d: QueryBatch: %v", workers, err)
		}
		if delta := after.TotalAlloc - before.TotalAlloc; delta > 16<<20 {
			t.Errorf("workers=%d: QueryBatch with K=65536 on 1000 points allocated %d bytes, want <= 16 MiB", workers, delta)
		}
		for qi, nbrs := range res {
			if len(nbrs) != ix.Len() {
				t.Fatalf("workers=%d query %d: %d neighbors, want all %d points", workers, qi, len(nbrs), ix.Len())
			}
		}
	}
}

func TestProcessCtx(t *testing.T) {
	p := NewPipeline(PipelineConfig{K: 4})
	ctx := context.Background()
	if _, err := p.ProcessCtx(ctx, nil); !errors.Is(err, ErrEmptyInput) {
		t.Fatalf("ProcessCtx(empty) = %v, want ErrEmptyInput", err)
	}
	res, err := p.ProcessCtx(ctx, apiCloud(300, 10))
	if err != nil {
		t.Fatalf("ProcessCtx(first frame) = %v", err)
	}
	if res.FrameIndex != 0 || res.Neighbors != nil {
		t.Fatalf("first frame result %+v, want frame 0 with no neighbors", res)
	}
	res, err = p.ProcessCtx(ctx, apiCloud(300, 11))
	if err != nil {
		t.Fatalf("ProcessCtx(second frame) = %v", err)
	}
	if res.FrameIndex != 1 || len(res.Neighbors) != 300 {
		t.Fatalf("second frame: frame=%d neighbors=%d, want 1/300", res.FrameIndex, len(res.Neighbors))
	}

	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := p.ProcessCtx(cancelled, apiCloud(300, 12)); !errors.Is(err, context.Canceled) {
		t.Fatalf("ProcessCtx(cancelled) = %v, want context.Canceled", err)
	}
}

// TestNonFiniteInputRejected checks that every error-returning entry
// point refuses a NaN or infinite coordinate with ErrInvalidPoint, naming
// the offending point, instead of indexing it or answering for it.
func TestNonFiniteInputRejected(t *testing.T) {
	ctx := context.Background()
	nan, inf := float32(math.NaN()), float32(math.Inf(1))
	bad := []Point{{X: nan}, {Y: inf}, {Z: -inf}}
	for _, p := range bad {
		cloud := apiCloud(300, 20)
		cloud[17] = p
		if _, err := BuildIndex(cloud); !errors.Is(err, ErrInvalidPoint) || !strings.Contains(err.Error(), "point 17 ") {
			t.Errorf("BuildIndex with %v at 17 = %v, want ErrInvalidPoint naming point 17", p, err)
		}
	}
	if err := CheckPoints([]Point{{X: math.MaxFloat32, Y: -math.MaxFloat32, Z: math.SmallestNonzeroFloat32}}); err != nil {
		t.Errorf("CheckPoints(extreme finite) = %v, want nil", err)
	}

	ix, err := BuildIndex(apiCloud(500, 21), WithBucketSize(32))
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	for _, p := range bad {
		for _, opts := range []QueryOptions{
			{Mode: ModeApprox, K: 8},
			{Mode: ModeExact, K: 8},
			{Mode: ModeChecks, K: 8, Checks: 64},
			{Mode: ModeRadius, Radius: 1},
		} {
			if res, err := ix.Query(ctx, p, opts); !errors.Is(err, ErrInvalidPoint) || res != nil {
				t.Errorf("Query(%v, %v) = %d neighbors, %v; want none and ErrInvalidPoint", p, opts.Mode, len(res), err)
			}
			dst := make([]Neighbor, 0, 8)
			if res, err := ix.QueryInto(ctx, p, opts, sc, dst); !errors.Is(err, ErrInvalidPoint) || len(res) != 0 {
				t.Errorf("QueryInto(%v, %v) = %d neighbors, %v; want none and ErrInvalidPoint", p, opts.Mode, len(res), err)
			}
			queries := apiCloud(40, 22)
			queries[33] = p
			if res, err := ix.QueryBatch(ctx, queries, opts); !errors.Is(err, ErrInvalidPoint) || res != nil ||
				!strings.Contains(err.Error(), "point 33 ") {
				t.Errorf("QueryBatch with %v at 33 (%v) = %v; want nil results and ErrInvalidPoint naming point 33", p, opts.Mode, err)
			}
		}
	}

	pl := NewPipeline(PipelineConfig{K: 4})
	for frame := 0; frame < 2; frame++ {
		cloud := apiCloud(300, int64(23+frame))
		cloud[5] = bad[frame]
		if _, err := pl.ProcessCtx(ctx, cloud); !errors.Is(err, ErrInvalidPoint) {
			t.Fatalf("ProcessCtx(frame with %v) = %v, want ErrInvalidPoint", bad[frame], err)
		}
		res, err := pl.ProcessCtx(ctx, apiCloud(300, int64(25+frame)))
		if err != nil || res.FrameIndex != frame {
			t.Fatalf("ProcessCtx after a rejected frame = frame %d, %v; want frame %d (counter not advanced)", res.FrameIndex, err, frame)
		}
	}
}

// tamperFirstBucketIndex locates the first live, non-empty bucket in a
// serialized index stream and returns the byte offset of its point
// records' index fields. Stream layout (internal/kdtree/serial.go):
// 12-uint32 header, numNodes 6-uint32 node records, then per bucket a
// 3-uint32 header (live, leaf, numPoints) followed by numPoints
// 4-uint32 point records whose 4th word is the reference index.
func firstBucketIndexOffsets(t *testing.T, raw []byte) []int {
	t.Helper()
	u32 := func(off int) uint32 { return binary.LittleEndian.Uint32(raw[off : off+4]) }
	numNodes := int(u32(8 * 4))
	numBuckets := int(u32(9 * 4))
	pos := 12*4 + numNodes*6*4
	for b := 0; b < numBuckets; b++ {
		live, np := u32(pos), int(u32(pos+8))
		pos += 12
		if live == 1 && np >= 2 {
			offsets := make([]int, np)
			for j := 0; j < np; j++ {
				offsets[j] = pos + j*16 + 12
			}
			return offsets
		}
		pos += np * 16
	}
	t.Fatal("no live bucket with >= 2 points found in stream")
	return nil
}

// TestLoadIndexRejectsCorruptBucketIndices tampers a valid stream's
// bucket back-indices two ways — out-of-range and duplicated — and
// checks LoadIndex reports ErrCorruptIndex instead of silently
// dropping points (the bug this release fixes).
func TestLoadIndexRejectsCorruptBucketIndices(t *testing.T) {
	ix, err := BuildIndex(apiCloud(400, 13), WithBucketSize(64))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()

	// Control: the untampered stream loads and answers searches.
	if _, err := LoadIndex(bytes.NewReader(clean)); err != nil {
		t.Fatalf("LoadIndex(clean) = %v", err)
	}

	offsets := firstBucketIndexOffsets(t, clean)

	// Out-of-range: point 0's index becomes numPoints + 1e6.
	bad := append([]byte(nil), clean...)
	binary.LittleEndian.PutUint32(bad[offsets[0]:], uint32(ix.Len()+1_000_000))
	if _, err := LoadIndex(bytes.NewReader(bad)); !errors.Is(err, ErrCorruptIndex) {
		t.Errorf("LoadIndex(out-of-range index) = %v, want ErrCorruptIndex", err)
	}

	// Duplicate: point 1's index repeats point 0's — a silent loader
	// would overwrite one reference point and zero-fill another.
	dup := append([]byte(nil), clean...)
	first := binary.LittleEndian.Uint32(dup[offsets[0]:])
	binary.LittleEndian.PutUint32(dup[offsets[1]:], first)
	if _, err := LoadIndex(bytes.NewReader(dup)); !errors.Is(err, ErrCorruptIndex) {
		t.Errorf("LoadIndex(duplicate index) = %v, want ErrCorruptIndex", err)
	}

	// Non-finite: point 0's X becomes NaN, a value no entry point accepts.
	nan := append([]byte(nil), clean...)
	binary.LittleEndian.PutUint32(nan[offsets[0]-12:], math.Float32bits(float32(math.NaN())))
	if _, err := LoadIndex(bytes.NewReader(nan)); !errors.Is(err, ErrCorruptIndex) || !errors.Is(err, ErrInvalidPoint) {
		t.Errorf("LoadIndex(NaN coordinate) = %v, want ErrCorruptIndex and ErrInvalidPoint", err)
	}
}
