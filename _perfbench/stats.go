package main

import (
	"slices"
	"sort"
	"time"
)

// clock0 is the benchmark's time origin; every timestamp it records is
// nanoseconds since clock0 on the monotonic clock.
var clock0 = time.Now()

func now() int64 { return int64(time.Since(clock0)) }

// sleepUntil blocks until the bench clock reads t.
func sleepUntil(t int64) {
	if d := t - now(); d > 0 {
		time.Sleep(time.Duration(d))
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	xs = append([]float64(nil), xs...)
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo] + frac*(xs[lo+1]-xs[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// tailQuantile is the q-quantile of a run's latencies lat, which
// completed at the bench-clock times done, taken second by second: the
// samples are cut by completion time into one-second windows, and the
// median of the windows' q-quantiles is returned. On a shared host,
// bursts of stolen CPU time lasting seconds set the plain quantile of a
// run; this figure is the tail of a typical second, so a tail present in
// more than half of the run's seconds shows in it, and a burst confined
// to fewer does not. Below four windows it is the plain quantile.
func tailQuantile(lat []float64, done []int64, q float64) float64 {
	if len(done) == 0 {
		return 0
	}
	first := slices.Min(done)
	perSec := make(map[int64][]float64)
	for i, t := range done {
		s := (t - first) / int64(time.Second)
		perSec[s] = append(perSec[s], lat[i])
	}
	if len(perSec) < 4 {
		return quantile(lat, q)
	}
	tails := make([]float64, 0, len(perSec))
	for _, xs := range perSec {
		tails = append(tails, quantile(xs, q))
	}
	return median(tails)
}

// nsTo converts nanosecond samples to the given unit (time.Millisecond,
// time.Microsecond, ...).
func nsTo(xs []float64, unit time.Duration) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x / float64(unit)
	}
	return out
}
