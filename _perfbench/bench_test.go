package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/obs"
)

// benchmarkFile is the part of BENCHMARK.json the smoke test reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricEntry `json:"end_to_end"`
	PerLayer []metricEntry `json:"per_layer"`
}

type metricEntry struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// TestSmoke runs every workload of BENCHMARK.json, and search-closed,
// which the benchmark runs but does not list (NOTES.md), for one second,
// untraced and traced, and checks that the report prints every metric
// of the run's kind with its unit, that answers were checked and none
// was wrong, and that a traced run writes its Perfetto trace.
func TestSmoke(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bm benchmarkFile
	if err := json.Unmarshal(raw, &bm); err != nil {
		t.Fatal(err)
	}
	if err := sameDefs(bm.EndToEnd, endToEnd); err != nil {
		t.Fatalf("end_to_end: %v", err)
	}
	if err := sameDefs(bm.PerLayer, perLayer); err != nil {
		t.Fatalf("per_layer: %v", err)
	}

	bin := filepath.Join(t.TempDir(), "quicknnd")
	if out, err := exec.Command("go", "build", "-o", bin, "github.com/quicknn/quicknn/cmd/quicknnd").CombinedOutput(); err != nil {
		t.Fatalf("build quicknnd: %v\n%s", err, out)
	}
	names := []string{"search-closed"}
	for _, w := range bm.Workloads {
		names = append(names, w.Name)
	}
	for _, name := range names {
		for _, trace := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/trace=%v", name, trace), func(t *testing.T) {
				dir := t.TempDir()
				res, err := run(context.Background(), config{
					workload: name, seed: 1, seconds: 1, trace: trace, quicknnd: bin, outDir: dir,
				})
				if err != nil {
					t.Fatal(err)
				}
				if res.checked == 0 || res.wrong != 0 || res.failed != 0 {
					t.Errorf("checked %d answers, %d wrong, %d of %d operations failed",
						res.checked, res.wrong, res.failed, res.attempted)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
					checkTraceFile(t, filepath.Join(dir, fmt.Sprintf("trace-%s-seed1.json", name)))
				}
				checkReport(t, res, defs)
			})
		}
	}
}

// sameDefs reports whether BENCHMARK.json lists exactly the metrics the
// benchmark reports, in the same order and units.
func sameDefs(got []metricEntry, want []metricDef) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d metrics, the benchmark reports %d", len(got), len(want))
	}
	for i, d := range want {
		if got[i].Name != d.name || got[i].Unit != d.unit {
			return fmt.Errorf("entry %d is %s (%s), the benchmark reports %s (%s)", i, got[i].Name, got[i].Unit, d.name, d.unit)
		}
	}
	return nil
}

// checkReport requires a text line and a JSON entry, with the unit, for
// every metric in defs and nothing else in the JSON summary.
func checkReport(t *testing.T, res *result, defs []metricDef) {
	t.Helper()
	var buf bytes.Buffer
	if err := writeReport(&buf, res); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	var sum summary
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
		t.Fatalf("last line is not the JSON summary: %v", err)
	}
	if !sum.Correct || sum.Attempted < 1 {
		t.Errorf("summary: correct %v, attempted %d", sum.Correct, sum.Attempted)
	}
	if len(sum.Metrics) != len(defs) {
		t.Errorf("summary has %d metrics, want %d", len(sum.Metrics), len(defs))
	}
	for _, d := range defs {
		if v, ok := sum.Metrics[d.name]; !ok || v.Unit != d.unit {
			t.Errorf("summary lacks %s in %s", d.name, d.unit)
		}
		printed := false
		for _, l := range lines {
			f := strings.Fields(l)
			if len(f) == 3 && f[0] == d.name && f[2] == d.unit {
				printed = true
			}
		}
		if !printed {
			t.Errorf("no line prints %s with unit %s", d.name, d.unit)
		}
	}
}

func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	tr, err := obs.ParseChrome(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.SpanEvents()) == 0 {
		t.Errorf("%s holds no spans", path)
	}
}

func TestSelfTimes(t *testing.T) {
	var set spanSet
	l := set.newLog("t")
	root := l.add("root", 0, 100, -1, obs.TraceID{})
	l.add("a", 10, 30, root, obs.TraceID{})
	l.add("b", 20, 50, root, obs.TraceID{})
	l.add("c", 90, 120, root, obs.TraceID{})
	self := set.selfTimes()
	// Children cover [10,50) and [90,100) of the root.
	if got := self["root"][0]; got != 50 {
		t.Errorf("root self time %v, want 50", got)
	}
	if got := self["c"][0]; got != 30 {
		t.Errorf("leaf self time %v, want 30", got)
	}
}

func TestStepFrame(t *testing.T) {
	// Consecutive steps of one scene are adjacent frames of that scene.
	for s := 0; s < 5*frameCount; s++ {
		a, b := stepFrame(s), stepFrame(s+scenes)
		if a/sceneFrames != s%scenes || b/sceneFrames != s%scenes {
			t.Fatalf("steps %d and %d play frames %d and %d outside scene %d", s, s+scenes, a, b, s%scenes)
		}
		if d := a - b; d != 1 && d != -1 {
			t.Fatalf("steps %d and %d play frames %d and %d", s, s+scenes, a, b)
		}
	}
}

func TestSceneSeeds(t *testing.T) {
	// Every run seed draws distinct generator seeds from the pool, and
	// the same run seed draws the same ones.
	for _, seed := range []int64{-5, 0, 1, 31, 91, 1 << 40} {
		gen := sceneSeeds(seed)
		seen := make(map[int64]bool)
		for _, g := range gen {
			if g < 0 || g >= scenePool || seen[g] {
				t.Fatalf("seed %d: generator seeds %v", seed, gen)
			}
			seen[g] = true
		}
		if again := sceneSeeds(seed); fmt.Sprint(again) != fmt.Sprint(gen) {
			t.Fatalf("seed %d: generator seeds %v, then %v", seed, gen, again)
		}
	}
}

// TestCheckReplyExact checks that an exact reply is judged against the
// brute-force answer: the true neighbors pass, and a valid but farther
// neighbor in their place is counted wrong.
func TestCheckReplyExact(t *testing.T) {
	frame := quicknn.SyntheticFrames(2000, 1, 1)[0]
	ix, err := referenceIndex(frame)
	if err != nil {
		t.Fatal(err)
	}
	queries := frame[:4]
	p, err := newPoolReq(ix, frame, queries, exactOpts, len(queries))
	if err != nil {
		t.Fatal(err)
	}
	reply := func(swap bool) *searchReply {
		type wireNeighbor struct {
			Index  int        `json:"index"`
			Point  [3]float32 `json:"point"`
			DistSq float64    `json:"dist_sq"`
		}
		var wire struct {
			Results [][]wireNeighbor `json:"results"`
		}
		for qi, q := range queries {
			nbrs := quicknn.BruteForce(frame, q, k+1)
			if swap && qi == 2 {
				nbrs[k-1] = nbrs[k]
			}
			var out []wireNeighbor
			for _, nb := range nbrs[:k] {
				out = append(out, wireNeighbor{nb.Index, [3]float32{nb.Point.X, nb.Point.Y, nb.Point.Z}, nb.DistSq})
			}
			wire.Results = append(wire.Results, out)
		}
		raw, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		var rep searchReply
		if err := json.Unmarshal(raw, &rep); err != nil {
			t.Fatal(err)
		}
		return &rep
	}
	var good tally
	if !checkReply(&good, reply(false), frame, &p) || good.wrong != 0 || good.hits != good.truths {
		t.Errorf("true neighbors: %+v", good)
	}
	var bad tally
	if checkReply(&bad, reply(true), frame, &p) || bad.wrong != 1 {
		t.Errorf("one neighbor replaced by a farther one: %+v", bad)
	}
}

// TestJoinFlightMissing checks that an answered traced search without a
// flight record fails the join, and that a failed one needs none.
func TestJoinFlightMissing(t *testing.T) {
	var set spanSet
	l := set.newLog("t")
	a, b := traceFor(1, 0), traceFor(1, 1)
	l.add(searchSpan(http.StatusOK), 0, 100, -1, a)
	l.add(searchSpan(http.StatusServiceUnavailable), 100, 200, -1, b)
	recs := map[obs.TraceID]flightRecord{a: {Total: 50e-9}}
	if joined, err := joinFlight(set.logs, recs); err != nil || len(joined) != 1 {
		t.Fatalf("joined %d records, err %v", len(joined), err)
	}
	l.add(searchSpan(http.StatusOK), 200, 300, -1, traceFor(1, 2))
	if _, err := joinFlight(set.logs, recs); err == nil {
		t.Fatal("an answered search without a flight record was joined")
	}
}

// TestTailQuantile checks that a tail confined to nine seconds of twenty
// does not set the figure and that one present in eleven of them does.
func TestTailQuantile(t *testing.T) {
	sample := func(slowSeconds int) ([]float64, []int64) {
		var lat []float64
		var done []int64
		for s := 0; s < 20; s++ {
			for i := 0; i < 100; i++ {
				v := 1.0
				if s < slowSeconds && i == 0 {
					v = 50
				}
				lat = append(lat, v)
				done = append(done, int64(s)*int64(time.Second)+int64(i))
			}
		}
		return lat, done
	}
	lat9, done9 := sample(9)
	lat11, done11 := sample(11)
	if got := tailQuantile(lat9, done9, 0.99); got != 1 {
		t.Errorf("nine slow seconds: %v, want 1", got)
	}
	if got := tailQuantile(lat11, done11, 0.99); got <= 1 {
		t.Errorf("eleven slow seconds: %v, want above 1", got)
	}
}
