package kdtree

import (
	"github.com/quicknn/quicknn/internal/geom"
	"github.com/quicknn/quicknn/internal/nn"
)

// This file holds the cancellable variants of the backtracking searches.
// Each takes a stop predicate that is polled once per bucket visit — the
// natural quantum of work in the bucketed tree (a bucket scan is B_N
// distance tests, a few microseconds) — and reports stopped=true when the
// search was abandoned. The predicate is the hook the root package's
// context-aware Query API plugs ctx.Err checks into; keeping kdtree free
// of the context package preserves its zero-dependency, simulation-grade
// surface. Like the other *Into forms they run out of a caller-owned
// Scratch and append to a caller-owned dst, so the cancellable paths are
// allocation-free too; a nil stop degenerates to the plain search.

// SearchExactStopInto is SearchExactInto with a cancellation hook: stop is
// polled before every bucket scan, and a true return abandons the search.
// When stopped, dst is returned unextended (res keeps the caller's
// prefix; no partial results are appended).
func (t *Tree) SearchExactStopInto(query geom.Point, k int, s *Scratch, dst []nn.Neighbor, stop func() bool) (res []nn.Neighbor, stats SearchStats, stopped bool) {
	s.initCands(k)
	if t.searchExactCore(query, s, &stats, stop, nil) {
		return stopReturn(dst), stats, true
	}
	return t.appendCands(dst, s.cands), stats, false
}

// SearchChecksStopInto is SearchChecksInto with a cancellation hook: stop
// is polled before every deferred-branch descent (each descent ends in one
// bucket scan). When stopped, dst is returned unextended.
func (t *Tree) SearchChecksStopInto(query geom.Point, k, checks int, s *Scratch, dst []nn.Neighbor, stop func() bool) (res []nn.Neighbor, stats SearchStats, stopped bool) {
	s.initCands(k)
	if t.searchChecksCore(query, checks, s, &stats, stop) {
		return stopReturn(dst), stats, true
	}
	return t.appendCands(dst, s.cands), stats, false
}

// SearchRadiusStopInto is SearchRadiusInto with a cancellation hook: stop
// is polled before every bucket scan. When stopped, any matches already
// appended to dst are discarded: the returned slice is the caller's
// prefix, unextended.
func (t *Tree) SearchRadiusStopInto(query geom.Point, radius float64, s *Scratch, dst []nn.Neighbor, stop func() bool) (res []nn.Neighbor, stats SearchStats, stopped bool) {
	base := len(dst)
	out, stopped := t.searchRadiusCore(query, radius, s, dst, &stats, stop)
	if stopped {
		return stopReturn(out[:base]), stats, true
	}
	return out, stats, false
}

// stopReturn normalizes the abandoned-search result: a nil dst stays nil
// (preserving the historical "results are nil when stopped" contract),
// a caller-owned dst is returned unextended.
func stopReturn(dst []nn.Neighbor) []nn.Neighbor {
	if len(dst) == 0 && cap(dst) == 0 {
		return nil
	}
	return dst
}
