package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"

	"github.com/quicknn/quicknn/internal/obs"
)

// span is one recorded interval on the bench clock. Spans are recorded
// at each layer boundary the benchmark can see from outside: around its
// own calls into a layer, and, for work inside quicknnd, from the
// durations the flight record or frame reply reports for the request.
type span struct {
	name       string
	start, end int64
	// parent is the index of the enclosing span in the same log, -1 for
	// a root.
	parent int32
	trace  obs.TraceID
}

// spanLog is one goroutine's spans, kept in memory until the run ends.
// It is not safe for concurrent use; each load goroutine owns one.
type spanLog struct {
	track string
	spans []span
}

// add records a span and returns its index for use as a parent.
func (l *spanLog) add(name string, start, end int64, parent int, trace obs.TraceID) int {
	l.spans = append(l.spans, span{name: name, start: start, end: end, parent: int32(parent), trace: trace})
	return len(l.spans) - 1
}

// addSeq records back-to-back child spans of parent starting at start,
// one per (name, duration) pair, skipping zero durations. It places the
// phases a layer reports only as durations.
func (l *spanLog) addSeq(parent int, start int64, trace obs.TraceID, names []string, durs []int64) {
	for i, name := range names {
		if durs[i] <= 0 {
			continue
		}
		l.add(name, start, start+durs[i], parent, trace)
		start += durs[i]
	}
}

// spanSet is every log of a run.
type spanSet struct{ logs []*spanLog }

func (s *spanSet) newLog(track string) *spanLog {
	l := &spanLog{track: track}
	s.logs = append(s.logs, l)
	return l
}

// durations returns every span's length in nanoseconds, by name.
func (s *spanSet) durations() map[string][]float64 {
	out := make(map[string][]float64)
	for _, l := range s.logs {
		for _, sp := range l.spans {
			out[sp.name] = append(out[sp.name], float64(sp.end-sp.start))
		}
	}
	return out
}

// selfTimes returns every span's self time in nanoseconds, by name: its
// length minus the part of it its children cover.
func (s *spanSet) selfTimes() map[string][]float64 {
	out := make(map[string][]float64)
	for _, l := range s.logs {
		children := make([][]int, len(l.spans))
		for i, sp := range l.spans {
			if sp.parent >= 0 {
				children[sp.parent] = append(children[sp.parent], i)
			}
		}
		for i, sp := range l.spans {
			covered := coveredLen(l.spans, children[i], sp.start, sp.end)
			out[sp.name] = append(out[sp.name], float64(sp.end-sp.start-covered))
		}
	}
	return out
}

// coveredLen is the length of the union of the given spans' intervals,
// clipped to [lo, hi).
func coveredLen(spans []span, idx []int, lo, hi int64) int64 {
	if len(idx) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].start, lo), min(spans[i].end, hi)
		if b > a {
			iv = append(iv, [2]int64{a, b})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, curA, curB int64
	for k, v := range iv {
		switch {
		case k == 0:
			curA, curB = v[0], v[1]
		case v[0] > curB:
			total += curB - curA
			curA, curB = v[0], v[1]
		case v[1] > curB:
			curB = v[1]
		}
	}
	if len(iv) > 0 {
		total += curB - curA
	}
	return total
}

// writeChrome exports the spans as Chrome trace-event JSON (loadable in
// ui.perfetto.dev) through the obs tracer: one track per log, with the
// parent index and trace id as span arguments.
func (s *spanSet) writeChrome(path string) error {
	tr := obs.NewTracer("perfbench")
	for _, l := range s.logs {
		for _, sp := range l.spans {
			args := map[string]int64{"parent": int64(sp.parent)}
			if !sp.trace.IsZero() {
				args["trace_hi"] = int64(sp.trace.Hi)
				args["trace_lo"] = int64(sp.trace.Lo)
			}
			tr.Span(l.track, sp.name, sp.start, sp.end, args)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("trace output: %w", err)
	}
	w := bufio.NewWriter(f)
	// Timestamps are nanoseconds: 1000 ticks per trace microsecond.
	if err := tr.WriteChrome(w, 1000); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("trace output: %w", err)
	}
	return f.Close()
}
