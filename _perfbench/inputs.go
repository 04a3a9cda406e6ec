package main

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"

	"github.com/quicknn/quicknn"
)

const (
	// framePoints is the paper's frame size (Tables 5-6).
	framePoints = 30000
	// A run's inputs are scenes independent drives of sceneFrames frames
	// each. Scenes differ a lot in how much their points move between
	// frames and in how well approximate search does on them, so each
	// run averages over many scenes, each as short as a successive-frame
	// pair allows. lidar.Sequence runs out of points after a few frames
	// on some generator seeds (NOTES.md), so the drives are short rather
	// than any frame being skipped or replaced.
	scenes      = 16
	sceneFrames = 2
	frameCount  = scenes * sceneFrames
	// scenePool is the number of generator seeds, 0..scenePool-1, a run
	// draws its scenes from. 126 is the lowest generator seed whose first
	// sceneFrames frames hold fewer than framePoints points (NOTES.md),
	// so every run seed gives inputs that pass the point-count check.
	scenePool = 126
	// k is the neighbor count of every search, as in the paper.
	k = 8
	// bucketSize and indexSeed are quicknnd's defaults (-bucket, -seed);
	// in-process reference indexes use them so their trees match the
	// daemon's.
	bucketSize = 256
	indexSeed  = 1
)

// sceneSeeds returns the generator seeds of a run's scenes: scenes
// distinct seeds of the pool, drawn from the run seed.
func sceneSeeds(seed int64) []int64 {
	perm := rand.New(rand.NewSource(seed)).Perm(scenePool)
	out := make([]int64, scenes)
	for i := range out {
		out[i] = int64(perm[i])
	}
	return out
}

// makeFrames generates the run's frames, scene after scene: frame f is
// frame f%sceneFrames of scene f/sceneFrames. A frame holding any other
// number of points than framePoints stops the benchmark.
func makeFrames(seed int64) ([][]quicknn.Point, error) {
	gen := sceneSeeds(seed)
	out := make([][][]quicknn.Point, scenes)
	var wg sync.WaitGroup
	for i := range out {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i] = quicknn.SyntheticFrames(framePoints, sceneFrames, gen[i])
		}(i)
	}
	wg.Wait()
	var frames [][]quicknn.Point
	for i, scene := range out {
		if len(scene) != sceneFrames {
			return nil, fmt.Errorf("seed %d: generator seed %d returned %d frames, want %d",
				seed, gen[i], len(scene), sceneFrames)
		}
		for f, pts := range scene {
			if len(pts) != framePoints {
				return nil, fmt.Errorf("seed %d: generator seed %d frame %d holds %d points, want %d",
					seed, gen[i], f, len(pts), framePoints)
			}
		}
		frames = append(frames, scene...)
	}
	return frames, nil
}

// stepFrame is the frame played at step s of the run's drive. Steps
// visit the scenes in turn, and each scene plays its frames back and
// forth (0,1,0,1,.. with two frames; 0,1,2,1,0,.. with three), so
// consecutive steps of one scene, s and s+scenes, are adjacent scans.
func stepFrame(s int) int {
	local := s / scenes
	period := 2 * (sceneFrames - 1)
	local %= period
	if local >= sceneFrames {
		local = period - local
	}
	return s%scenes*sceneFrames + local
}

// neighborFrame is a frame adjacent to f in f's scene.
func neighborFrame(f int) int {
	if f%sceneFrames == sceneFrames-1 {
		return f - 1
	}
	return f + 1
}

// drawQueries picks n query points of src at random.
func drawQueries(rng *rand.Rand, src []quicknn.Point, n int) []quicknn.Point {
	qs := make([]quicknn.Point, n)
	for i := range qs {
		qs[i] = src[rng.Intn(len(src))]
	}
	return qs
}

// referenceIndex builds an in-process index over frame with quicknnd's
// bucket size and seed, so approximate answers match the daemon's.
func referenceIndex(frame []quicknn.Point) (*quicknn.Index, error) {
	return quicknn.BuildIndex(frame, quicknn.WithBucketSize(bucketSize), quicknn.WithSeed(indexSeed))
}

// sortedDist returns the neighbors' squared distances in ascending
// order: the form answers are compared in, so ties between equally
// distant points are tolerated.
func sortedDist(nbrs []quicknn.Neighbor) []float64 {
	d := make([]float64, len(nbrs))
	for i, nb := range nbrs {
		d[i] = nb.DistSq
	}
	sort.Float64s(d)
	return d
}

// sameDist reports whether two ascending distance lists are equal.
func sameDist(a, b []float64) bool {
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

// recallHits counts how many of the true top-k distances got contains,
// as a multiset intersection of two ascending lists.
func recallHits(got, truth []float64) int {
	hits, i, j := 0, 0, 0
	for i < len(got) && j < len(truth) {
		switch {
		case got[i] == truth[j]:
			hits++
			i++
			j++
		case got[i] < truth[j]:
			i++
		default:
			j++
		}
	}
	return hits
}

// validNeighbors reports whether every neighbor names a point of ref by
// its index and carries that point's true distance to q.
func validNeighbors(ref []quicknn.Point, q quicknn.Point, nbrs []quicknn.Neighbor) bool {
	for _, nb := range nbrs {
		if nb.Index < 0 || nb.Index >= len(ref) || ref[nb.Index] != nb.Point || q.DistSq(nb.Point) != nb.DistSq {
			return false
		}
	}
	return true
}
