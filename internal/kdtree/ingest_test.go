package kdtree

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"testing"

	"github.com/quicknn/quicknn/internal/geom"
)

// The parallel-ingest contract (docs/performance.md): for ANY worker
// count, Build / Place / Rebalance / UpdateFrame produce a tree that is
// byte-identical to the serial one — same node and bucket numbering,
// same free-list contents, same arena layout including retired holes —
// so query answers cannot change with Parallelism. These tests pin that
// contract across seeds × worker counts; the worker counts exceed
// GOMAXPROCS on small CI machines on purpose (goroutine interleaving
// still exercises the phased code paths).

var ingestWorkerCounts = []int{2, 3, 4, 8}

// eqI32 compares int32 slices treating nil and empty as equal (both
// paths start from nil and perform identical append/pop sequences, but
// the comparison should not hinge on that).
func eqI32(a, b []int32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// requireTreesByteEqual asserts the full structural + arena state match
// between a serial-built and a parallel-built tree. cfg.Parallelism is
// the one field allowed to differ.
func requireTreesByteEqual(t *testing.T, label string, serial, par *Tree) {
	t.Helper()
	if serial.root != par.root {
		t.Fatalf("%s: root %d != %d", label, par.root, serial.root)
	}
	if !reflect.DeepEqual(serial.nodes, par.nodes) {
		for i := range serial.nodes {
			if i < len(par.nodes) && serial.nodes[i] != par.nodes[i] {
				t.Fatalf("%s: node %d = %+v, want %+v (of %d/%d nodes)",
					label, i, par.nodes[i], serial.nodes[i], len(par.nodes), len(serial.nodes))
			}
		}
		t.Fatalf("%s: node tables diverge: %d vs %d nodes", label, len(par.nodes), len(serial.nodes))
	}
	if !reflect.DeepEqual(serial.buckets, par.buckets) {
		for i := range serial.buckets {
			if i < len(par.buckets) && serial.buckets[i] != par.buckets[i] {
				t.Fatalf("%s: bucket %d = %+v, want %+v", label, i, par.buckets[i], serial.buckets[i])
			}
		}
		t.Fatalf("%s: bucket tables diverge: %d vs %d buckets", label, len(par.buckets), len(serial.buckets))
	}
	if !eqI32(serial.freeNodes, par.freeNodes) {
		t.Fatalf("%s: free node lists diverge:\n got %v\nwant %v", label, par.freeNodes, serial.freeNodes)
	}
	if !eqI32(serial.freeBuckets, par.freeBuckets) {
		t.Fatalf("%s: free bucket lists diverge:\n got %v\nwant %v", label, par.freeBuckets, serial.freeBuckets)
	}
	if serial.liveBuckets != par.liveBuckets {
		t.Fatalf("%s: liveBuckets %d != %d", label, par.liveBuckets, serial.liveBuckets)
	}
	if serial.arenaHole != par.arenaHole {
		t.Fatalf("%s: arenaHole %d != %d", label, par.arenaHole, serial.arenaHole)
	}
	if len(serial.arenaIdx) != len(par.arenaIdx) {
		t.Fatalf("%s: arena length %d != %d", label, len(par.arenaIdx), len(serial.arenaIdx))
	}
	bits := math.Float64bits
	for i := range serial.arenaIdx {
		if bits(serial.arenaX[i]) != bits(par.arenaX[i]) || bits(serial.arenaY[i]) != bits(par.arenaY[i]) ||
			bits(serial.arenaZ[i]) != bits(par.arenaZ[i]) || serial.arenaIdx[i] != par.arenaIdx[i] {
			t.Fatalf("%s: arena slot %d = {%v, %d}, want {%v, %d}", label, i,
				par.point(int32(i)), par.arenaIdx[i], serial.point(int32(i)), serial.arenaIdx[i])
		}
	}
	if err := par.Validate(); err != nil {
		t.Fatalf("%s: parallel tree invalid: %v", label, err)
	}
}

// requireSameAnswers asserts byte-identical exact, approx, and
// bounded-checks query results between the two trees (the acceptance
// criterion stated over observable behavior, not just internal state).
func requireSameAnswers(t *testing.T, label string, serial, par *Tree) {
	t.Helper()
	queries := equivalenceQueries(40, 97)
	for _, k := range []int{1, 8} {
		for qi, q := range queries {
			wantA, wantAS := serial.SearchApprox(q, k)
			gotA, gotAS := par.SearchApprox(q, k)
			if !reflect.DeepEqual(wantA, gotA) || wantAS != gotAS {
				t.Fatalf("%s: approx k=%d query %d diverges:\n got %v %+v\nwant %v %+v",
					label, k, qi, gotA, gotAS, wantA, wantAS)
			}
			wantE, wantES := serial.SearchExact(q, k)
			gotE, gotES := par.SearchExact(q, k)
			if !reflect.DeepEqual(wantE, gotE) || wantES != gotES {
				t.Fatalf("%s: exact k=%d query %d diverges", label, k, qi)
			}
			wantC, wantCS := serial.SearchChecks(q, k, 512)
			gotC, gotCS := par.SearchChecks(q, k, 512)
			if !reflect.DeepEqual(wantC, gotC) || wantCS != gotCS {
				t.Fatalf("%s: checks k=%d query %d diverges", label, k, qi)
			}
		}
	}
}

func TestBuildParallelEquivalence(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		pts := clusteredPoints(30000, seed)
		cfg := Config{BucketSize: 64}
		serialCfg := cfg
		serialCfg.Parallelism = 1
		serial := Build(pts, serialCfg, rand.New(rand.NewSource(seed)))
		if err := serial.Validate(); err != nil {
			t.Fatalf("serial tree invalid: %v", err)
		}
		for _, w := range ingestWorkerCounts {
			parCfg := cfg
			parCfg.Parallelism = w
			par := Build(pts, parCfg, rand.New(rand.NewSource(seed)))
			label := fmt.Sprintf("seed=%d workers=%d", seed, w)
			requireTreesByteEqual(t, label, serial, par)
			if w == ingestWorkerCounts[0] {
				requireSameAnswers(t, label, serial, par)
			}
		}
	}
}

func TestPlaceParallelEquivalence(t *testing.T) {
	base := clusteredPoints(20000, 3)
	// Frames sized to exercise the growth simulator: refills that fit
	// (no relocation), overfills that force growBucket event chains, and
	// an accumulation on top of live content.
	big := clusteredPoints(60000, 5)
	shifted := (geom.Transform{Yaw: 0.05, Translation: geom.Point{X: 6, Y: -3}}).ApplyAll(base)
	for _, w := range ingestWorkerCounts {
		serialCfg := Config{BucketSize: 64, Parallelism: 1}
		serial := Build(base, serialCfg, rand.New(rand.NewSource(9)))
		par := serial.Clone()
		par.SetParallelism(w)

		step := func(label string, run func(tr *Tree)) {
			run(serial)
			run(par)
			requireTreesByteEqual(t, fmt.Sprintf("workers=%d %s", w, label), serial, par)
		}
		step("refill", func(tr *Tree) { tr.ResetBuckets(); tr.Place(base) })
		step("overfill", func(tr *Tree) { tr.ResetBuckets(); tr.Place(big) })
		step("accumulate", func(tr *Tree) { tr.Place(shifted) })
		step("shrink", func(tr *Tree) { tr.ResetBuckets(); tr.Place(shifted) })
		if w == ingestWorkerCounts[len(ingestWorkerCounts)-1] {
			requireSameAnswers(t, "place", serial, par)
		}
	}
}

func TestUpdateFrameParallelEquivalence(t *testing.T) {
	for _, seed := range []int64{2, 11} {
		frames := [][]geom.Point{clusteredPoints(24000, seed)}
		// A drifting, size-varying frame sequence: shrinking frames breed
		// delinquent leaves (merges), drift plus regrowth breeds oversized
		// leaves (splits), so the phased rebalance really runs.
		drift := geom.Transform{Yaw: 0.04, Translation: geom.Point{X: 4, Y: 2}}
		sizes := []int{12000, 6000, 30000, 24000}
		for i, n := range sizes {
			prev := frames[len(frames)-1]
			moved := drift.ApplyAll(prev)
			if n <= len(moved) {
				moved = moved[:n]
			} else {
				extra := clusteredPoints(n-len(moved), seed+int64(i)*17)
				moved = append(moved, extra...)
			}
			frames = append(frames, moved)
		}
		for _, w := range ingestWorkerCounts {
			serial := Build(frames[0], Config{BucketSize: 64, Parallelism: 1}, rand.New(rand.NewSource(seed)))
			par := serial.Clone()
			par.SetParallelism(w)
			rebuilds := 0
			for fi, f := range frames[1:] {
				wantRes := serial.UpdateFrame(f, 0, 0)
				gotRes := par.UpdateFrame(f, 0, 0)
				label := fmt.Sprintf("seed=%d workers=%d frame=%d", seed, w, fi)
				if wantRes != gotRes {
					t.Fatalf("%s: UpdateResult = %+v, want %+v", label, gotRes, wantRes)
				}
				rebuilds += wantRes.Merged + wantRes.Split
				requireTreesByteEqual(t, label, serial, par)
			}
			if rebuilds == 0 {
				t.Fatalf("seed=%d: frame sequence never triggered a rebuild; test is vacuous", seed)
			}
			requireSameAnswers(t, fmt.Sprintf("seed=%d workers=%d", seed, w), serial, par)
		}
	}
}

func TestRebalanceParallelEquivalence(t *testing.T) {
	// Drive Rebalance directly with tight bounds so both merge rounds
	// and splits fire repeatedly on a skewed occupancy.
	pts := clusteredPoints(16000, 21)
	skew := clusteredPoints(16000, 22)
	for i := range skew {
		skew[i].X = skew[i].X*0.2 + 30 // squeeze into few leaves
	}
	for _, w := range ingestWorkerCounts {
		serial := Build(pts, Config{BucketSize: 64, Parallelism: 1}, rand.New(rand.NewSource(33)))
		par := serial.Clone()
		par.SetParallelism(w)
		// Round 1: the skewed refill empties most leaves — merges fire.
		for _, tr := range []*Tree{serial, par} {
			tr.ResetBuckets()
			tr.Place(skew)
		}
		mergeRes := serial.Rebalance(32, 128)
		if gotRes := par.Rebalance(32, 128); mergeRes != gotRes {
			t.Fatalf("workers=%d: merge UpdateResult = %+v, want %+v", w, gotRes, mergeRes)
		}
		requireTreesByteEqual(t, fmt.Sprintf("workers=%d merge", w), serial, par)
		// Round 2: accumulating the original frame on top overfills the
		// merged leaves; a tiny lower bound isolates the split step.
		for _, tr := range []*Tree{serial, par} {
			tr.Place(pts)
		}
		splitRes := serial.Rebalance(2, 96)
		if gotRes := par.Rebalance(2, 96); splitRes != gotRes {
			t.Fatalf("workers=%d: split UpdateResult = %+v, want %+v", w, gotRes, splitRes)
		}
		requireTreesByteEqual(t, fmt.Sprintf("workers=%d split", w), serial, par)
		if mergeRes.Merged == 0 || splitRes.Split == 0 {
			t.Fatalf("rebalance rounds did neither merge (%d) nor split (%d); test is vacuous",
				mergeRes.Merged, splitRes.Split)
		}
	}
}

func TestSamplePointsIntoMatchesLegacy(t *testing.T) {
	// The index-selection sampler must draw the same rng sequence — and
	// therefore pick the same points — as the historical implementation
	// that copied the whole slice and partially shuffled it.
	legacy := func(points []geom.Point, n int, rng *rand.Rand) []geom.Point {
		out := make([]geom.Point, len(points))
		copy(out, points)
		if n >= len(points) {
			return out
		}
		for i := 0; i < n; i++ {
			j := i + rng.Intn(len(out)-i)
			out[i], out[j] = out[j], out[i]
		}
		return out[:n]
	}
	pts := clusteredPoints(5000, 13)
	for _, n := range []int{1, 100, 2500, 5000, 9000} {
		want := legacy(pts, n, rand.New(rand.NewSource(77)))
		sc := getSampleScratch()
		got := samplePointsInto(sc, pts, n, rand.New(rand.NewSource(77)))
		if len(want) > len(pts) {
			want = want[:len(pts)]
		}
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("n=%d: sample diverges from legacy sampler", n)
		}
		putSampleScratch(sc)
	}
}

func TestIngestTimingPhases(t *testing.T) {
	pts := clusteredPoints(8000, 4)
	tr := Build(pts, Config{BucketSize: 64, Parallelism: 2}, rand.New(rand.NewSource(1)))
	ti := tr.LastIngest()
	if ti.SplitsSeconds <= 0 || ti.PlaceSeconds <= 0 {
		t.Fatalf("Build timing incomplete: %+v", ti)
	}
	if ti.PlanSeconds <= 0 || ti.ScatterSeconds <= 0 {
		t.Fatalf("parallel Place should report plan+scatter: %+v", ti)
	}
	if ti.Workers != 2 {
		t.Fatalf("Workers = %d, want 2", ti.Workers)
	}
	tr.UpdateFrame(pts, 0, 0)
	ti = tr.LastIngest()
	if ti.SplitsSeconds != 0 {
		t.Fatalf("UpdateFrame should not report a splits phase: %+v", ti)
	}
	if ti.PlaceSeconds <= 0 || ti.RebalanceSeconds <= 0 {
		t.Fatalf("UpdateFrame timing incomplete: %+v", ti)
	}
	tr.SetParallelism(1)
	tr.UpdateFrame(pts, 0, 0)
	ti = tr.LastIngest()
	if ti.PlanSeconds != 0 || ti.ScatterSeconds != 0 {
		t.Fatalf("serial Place should not report plan/scatter: %+v", ti)
	}
	if ti.Workers != 1 {
		t.Fatalf("Workers = %d, want 1", ti.Workers)
	}
}

func TestPlacePlanZeroAllocs(t *testing.T) {
	// The pooled plan buffers are the parallel Place path's only scratch;
	// once warm, planning a same-shaped frame must not allocate. planPlace
	// is read-only on the tree, so re-running it is idempotent. workers=1
	// keeps the assertion meaningful (the fan-out itself spawns
	// goroutines, which allocate by design).
	pts := clusteredPoints(12000, 51)
	tree := mustBuild(t, pts, Config{BucketSize: 64, Parallelism: 1}, 52)
	assertZeroAllocs(t, "planPlace", func() {
		pl := getPlacePlan()
		tree.planPlace(pts, pl, 1)
		putPlacePlan(pl)
	})
}

func TestUpdateFrameSteadyStateZeroAllocs(t *testing.T) {
	// Steady state: the same frame placed into a settled tree triggers no
	// rebuild work, and with the freed-set and walk scratch now reusable
	// the whole UpdateFrame must be allocation-free (historically the
	// rebalance pass allocated a map[int32]bool per call).
	pts := clusteredPoints(20000, 53)
	tree := mustBuild(t, pts, Config{BucketSize: 64, Parallelism: 1}, 54)
	tree.UpdateFrame(pts, 0, 0) // settle
	if res := tree.UpdateFrame(pts, 0, 0); res != (UpdateResult{}) {
		t.Fatalf("tree not settled: %+v", res)
	}
	assertZeroAllocs(t, "UpdateFrame", func() {
		tree.UpdateFrame(pts, 0, 0)
	})
}
