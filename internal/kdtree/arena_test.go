package kdtree

import (
	"math"
	"math/rand"
	"testing"

	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/nn"
)

// The arena invariant (docs/invariants.md): the live buckets' reserved
// spans tile the arena exactly — sum(live cap) + holes == ArenaLen, spans
// pairwise disjoint and in bounds — and it holds after every mutation.
// Validate() checks the invariant itself; these tests drive the mutations
// that historically create holes (growth relocations, incremental
// rebalances, frame updates) and pin the compaction behavior on top.

func liveCapSum(t *Tree) int {
	sum := 0
	t.Buckets(func(_ int32, b *Bucket) { sum += int(b.cap) })
	return sum
}

// TestValidateAcceptsNaNPoint checks that a tree holding a NaN coordinate
// (kdtree stores what it is given; the root API rejects such input) passes
// Validate: the arena keeps each coordinate once, so there is no second
// copy for NaN != NaN to make look stale.
func TestValidateAcceptsNaNPoint(t *testing.T) {
	pts := clusteredPoints(2000, 7)
	pts[100].Y = float32(math.NaN())
	tree := mustBuild(t, pts, Config{BucketSize: 64}, 8)
	tree.UpdateFrame(pts, 0, 0)
	if err := tree.Validate(); err != nil {
		t.Fatalf("after update: %v", err)
	}
}

func TestArenaInvariantAcrossUpdates(t *testing.T) {
	pts := clusteredPoints(6000, 81)
	tree := mustBuild(t, pts, Config{BucketSize: 64}, 82)
	shift := geom.Transform{Yaw: 0.02, Translation: geom.Point{X: 0.8, Y: 0.3}}
	frame := pts
	for i := 0; i < 6; i++ {
		frame = shift.ApplyAll(frame)
		tree.UpdateFrame(frame, 0, 0)
		if err := tree.Validate(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if got := liveCapSum(tree) + tree.ArenaHoles(); got != tree.ArenaLen() {
			t.Fatalf("frame %d: live caps + holes = %d, arena len %d", i, got, tree.ArenaLen())
		}
		if tree.NumPoints() != len(frame) {
			t.Fatalf("frame %d: NumPoints %d, want %d", i, tree.NumPoints(), len(frame))
		}
	}
}

func TestCompactArenaPreservesSearchesAndZeroesHoles(t *testing.T) {
	pts := clusteredPoints(6000, 83)
	tree := mustBuild(t, pts, Config{BucketSize: 64}, 84)
	shift := geom.Transform{Yaw: -0.01, Translation: geom.Point{X: -0.5, Y: 1.1}}
	frame := shift.ApplyAll(pts)
	tree.UpdateFrame(frame, 0, 0)

	queries := equivalenceQueries(50, 85)
	type snap struct {
		res   [][]nn.Neighbor
		stats []SearchStats
	}
	record := func() snap {
		var s snap
		for _, q := range queries {
			r, st := tree.SearchExact(q, 8)
			s.res = append(s.res, r)
			s.stats = append(s.stats, st)
		}
		return s
	}
	before := record()
	tree.CompactArena()
	if err := tree.Validate(); err != nil {
		t.Fatalf("post-compact Validate: %v", err)
	}
	if tree.ArenaHoles() != 0 {
		t.Fatalf("post-compact holes = %d, want 0", tree.ArenaHoles())
	}
	if tree.ArenaLen() != tree.NumPoints() {
		t.Fatalf("post-compact arena len %d, want NumPoints %d", tree.ArenaLen(), tree.NumPoints())
	}
	after := record()
	for i := range queries {
		diffNeighbors(t, "compact/exact", after.res[i], before.res[i],
			after.stats[i], before.stats[i])
	}
}

// TestStaticUpdateArenaStable drives the static-tree refresh loop
// (ResetBuckets + Place, the paper's frozen-splits mode) and checks the
// arena reaches a fixed point: after the first few frames the spans stop
// growing, so steady-state refresh allocates nothing in the arena.
func TestStaticUpdateArenaStable(t *testing.T) {
	pts := clusteredPoints(4000, 86)
	tree := mustBuild(t, pts, Config{BucketSize: 64}, 87)
	rng := rand.New(rand.NewSource(88))
	jitter := func(in []geom.Point) []geom.Point {
		out := make([]geom.Point, len(in))
		for i, p := range in {
			out[i] = geom.Point{
				X: p.X + float32(rng.NormFloat64()*0.01),
				Y: p.Y + float32(rng.NormFloat64()*0.01),
				Z: p.Z + float32(rng.NormFloat64()*0.005),
			}
		}
		return out
	}
	frame := pts
	// Warm up: two frames let every bucket reach its high-water span.
	for i := 0; i < 2; i++ {
		frame = jitter(frame)
		tree.ResetBuckets()
		tree.Place(frame)
	}
	lenAfterWarmup := tree.ArenaLen()
	for i := 0; i < 5; i++ {
		frame = jitter(frame)
		tree.ResetBuckets()
		tree.Place(frame)
		if err := tree.Validate(); err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
	}
	if tree.ArenaLen() != lenAfterWarmup {
		t.Fatalf("arena grew across steady-state static updates: %d -> %d",
			lenAfterWarmup, tree.ArenaLen())
	}
}
