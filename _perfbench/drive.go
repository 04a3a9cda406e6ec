package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/obs"
)

// The drive workload is the paper's successive-frame loop through the
// root API, in process and on one goroutine: the index holds frame t-1,
// Index.QueryBatch answers every point of frame t (approximate, k=8),
// then Index.Update advances the index to frame t with the paper's
// incremental maintenance (§4.4). Each scene has its own index, and the
// steps visit the scenes in turn. No serve, degrade or HTTP code runs.

const (
	// driveSetups is how many times set-up (BuildIndex on the first
	// frame plus one query) is repeated; setup_s is their median.
	driveSetups = 25
	// driveSample queries of every frame, evenly spaced through it, are
	// checked and feed recall_at_8.
	driveSample = 256
)

var approxOpts = quicknn.QueryOptions{K: k, Mode: quicknn.ModeApprox}

// frameLoop runs the frame loop; step is the next step to query, and
// ixs[i] is scene i's index.
type frameLoop struct {
	ixs    []*quicknn.Index
	frames [][]quicknn.Point
	res    *result
	sc     *quicknn.Scratch
	step   int
	want   [driveSample][]float64
	// truth holds the brute-force answers of the sampled queries, by
	// (reference frame, query frame) pair.
	truth map[[2]int][][]float64
}

// driveStats is what one loop measured. Times are nanoseconds.
type driveStats struct {
	search []float64
	// ingest holds each scene's Update times.
	ingest [scenes][]float64
	frames int
	busy   int64
	// Work counters of the sampled queries (Scratch.LastStats).
	sampled, scanned, buckets, steps int
	bucketMax                        int
}

func runDrive(ctx context.Context, cfg config) (*result, error) {
	frames, err := makeFrames(cfg.seed)
	if err != nil {
		return nil, err
	}
	// Return the generator's garbage so the peak RSS reflects the loop.
	runtime.GC()
	debug.FreeOSMemory()

	res := newResult()
	d := &frameLoop{frames: frames, res: res, sc: quicknn.NewScratch(), step: scenes}
	setups := make([]float64, 0, driveSetups)
	for i := 0; i < driveSetups; i++ {
		t0 := now()
		ix, err := quicknn.BuildIndex(frames[0])
		if err != nil {
			return nil, fmt.Errorf("BuildIndex: %w", err)
		}
		if _, err := ix.Query(ctx, frames[1][0], approxOpts); err != nil {
			return nil, fmt.Errorf("first query: %w", err)
		}
		setups = append(setups, float64(now()-t0))
	}
	d.truth = sampleTruth(frames)
	// Steps 0..scenes-1 are each scene's first frame.
	for s := 0; s < scenes; s++ {
		ix, err := quicknn.BuildIndex(frames[stepFrame(s)])
		if err != nil {
			return nil, fmt.Errorf("BuildIndex: %w", err)
		}
		d.ixs = append(d.ixs, ix)
	}

	if !cfg.trace {
		resetPeakRSS(0)
		st, err := d.loop(ctx, cfg.seconds, nil)
		if err != nil {
			return nil, err
		}
		ps, err := readProc(os.Getpid())
		if err != nil {
			return nil, err
		}
		busy := float64(st.busy) / 1e9
		res.set("setup_s", median(setups)/1e9)
		res.set("search_p50_ms", quantile(nsTo(st.search, time.Millisecond), 0.5))
		res.set("search_p99_ms", quantile(nsTo(st.search, time.Millisecond), 0.99))
		res.set("search_rps", float64(st.frames)/busy)
		res.set("ingest_p50_ms", sceneQuantile(st.ingest, 0.5))
		res.set("ingest_p90_ms", sceneQuantile(st.ingest, 0.9))
		res.set("drive_fps", float64(st.frames)/busy)
		res.set("mem_mb", ps.hwmMB)
		return res, nil
	}

	// Traced run: a short untraced stretch first, as the base of
	// bench.trace_overhead, then the traced loop.
	base, err := d.loop(ctx, cfg.seconds/4, nil)
	if err != nil {
		return nil, err
	}
	res.spans = &spanSet{}
	st, err := d.loop(ctx, cfg.seconds, res.spans.newLog("drive"))
	if err != nil {
		return nil, err
	}
	dur := res.spans.durations()
	ms := func(name string) float64 { return median(nsTo(dur[name], time.Millisecond)) }
	qb, upd, frame := ms("quicknn.QueryBatch"), ms("quicknn.Update"), ms("drive.frame")
	res.set("quicknn.query_batch_ms", qb)
	res.set("quicknn.update_ms", upd)
	res.set("kdtree.splits_ms", ms("kdtree.splits"))
	res.set("kdtree.place_ms", ms("kdtree.place"))
	res.set("kdtree.rebalance_ms", ms("kdtree.rebalance"))
	res.set("kdtree.points_scanned_per_query", float64(st.scanned)/float64(st.sampled))
	res.set("kdtree.buckets_per_query", float64(st.buckets)/float64(st.sampled))
	res.set("kdtree.traversal_steps_per_query", float64(st.steps)/float64(st.sampled))
	res.set("kdtree.bucket_max", float64(st.bucketMax))
	res.set("bench.op_p50_traced_ms", frame)
	res.set("bench.accounted_frac", (qb+upd)/frame)
	res.set("bench.trace_overhead", median(st.search)/median(base.search))
	return res, nil
}

// loop runs frames for the given seconds. With a span log it records a
// drive.frame span per frame with the QueryBatch and Update calls under
// it, and the ingest phases Update reports under Update.
func (d *frameLoop) loop(ctx context.Context, seconds float64, log *spanLog) (driveStats, error) {
	var st driveStats
	res := d.res
	end := now() + int64(seconds*1e9)
	for now() < end {
		if err := ctx.Err(); err != nil {
			return st, err
		}
		ix := d.ixs[d.step%scenes]
		ref, qs := d.frames[stepFrame(d.step-scenes)], d.frames[stepFrame(d.step)]
		// Reference answers for the sample, from the index before it
		// moves to the next frame: the per-query path, which the batch
		// path must match.
		for j := range d.want {
			q := qs[j*framePoints/driveSample]
			got, err := ix.QueryInto(ctx, q, approxOpts, d.sc, nil)
			if err != nil {
				return st, fmt.Errorf("QueryInto: %w", err)
			}
			d.want[j] = sortedDist(got)
			ls := d.sc.LastStats()
			st.sampled++
			st.scanned += ls.PointsScanned
			st.buckets += ls.BucketsVisited
			st.steps += ls.TraversalSteps
		}

		t0 := now()
		out, qerr := ix.QueryBatch(ctx, qs, approxOpts)
		t1 := now()
		ix.Update(qs)
		t2 := now()

		res.attempted += 2
		st.frames++
		st.busy += t2 - t0
		st.search = append(st.search, float64(t1-t0))
		sc := d.step % scenes
		st.ingest[sc] = append(st.ingest[sc], float64(t2-t1))
		if qerr != nil {
			res.failed++
		} else if !d.checkBatch(out, ref, qs, d.truth[[2]int{stepFrame(d.step - scenes), stepFrame(d.step)}]) {
			res.failed++
		}
		if n := ix.Len(); n != framePoints {
			res.failed++
			res.wrong++
		}
		if log != nil {
			root := log.add("drive.frame", t0, t2, -1, obs.TraceID{})
			log.add("quicknn.QueryBatch", t0, t1, root, obs.TraceID{})
			u := log.add("quicknn.Update", t1, t2, root, obs.TraceID{})
			it := ix.IngestTiming()
			log.addSeq(u, t1, obs.TraceID{},
				[]string{"kdtree.splits", "kdtree.place", "kdtree.rebalance"},
				[]int64{secNs(it.SplitsSeconds), secNs(it.PlaceSeconds), secNs(it.RebalanceSeconds)})
			st.bucketMax = max(st.bucketMax, ix.Stats().Max)
		}
		d.step++
	}
	return st, nil
}

// sampleTruth computes, for every pair of frames the drive steps
// between, the brute-force answers of the sampled queries of the later
// frame over the earlier one.
func sampleTruth(frames [][]quicknn.Point) map[[2]int][][]float64 {
	truth := make(map[[2]int][][]float64)
	qs := make([]quicknn.Point, driveSample)
	for s := scenes; s < scenes+scenes*2*(sceneFrames-1); s++ {
		pair := [2]int{stepFrame(s - scenes), stepFrame(s)}
		for j := range qs {
			qs[j] = frames[pair[1]][j*framePoints/driveSample]
		}
		for _, nbrs := range quicknn.BruteForceAll(frames[pair[0]], qs, k) {
			truth[pair] = append(truth[pair], sortedDist(nbrs))
		}
	}
	return truth
}

// checkBatch compares the sampled QueryBatch answers with the reference
// answers and scores them against the brute-force truth; false when any
// differs from its reference.
func (d *frameLoop) checkBatch(out [][]quicknn.Neighbor, ref, qs []quicknn.Point, truth [][]float64) bool {
	ok := true
	for j := range d.want {
		qi := j * framePoints / driveSample
		got := out[qi]
		gd := sortedDist(got)
		d.res.checked++
		if !validNeighbors(ref, qs[qi], got) || !sameDist(gd, d.want[j]) {
			d.res.wrong++
			ok = false
		}
		d.res.hits += recallHits(gd, truth[j])
		d.res.truths += k
	}
	return ok
}

// sceneQuantile is the median over the scenes of each scene's
// q-quantile of its Update times, in ms. How much work an update does
// depends on how the scene moves, and the heaviest of a run's scenes
// would set a quantile of all updates together; taking each scene's
// drive on its own and the middle of them keeps the figure a property of
// the code more than of the seed.
func sceneQuantile(ingest [scenes][]float64, q float64) float64 {
	per := make([]float64, 0, scenes)
	for _, xs := range ingest {
		per = append(per, quantile(nsTo(xs, time.Millisecond), q))
	}
	return median(per)
}

func secNs(s float64) int64 { return int64(s * 1e9) }
