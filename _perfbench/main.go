// Command perfbench is the repository's end-to-end benchmark. It drives
// one workload for a fixed time, checks every answer it gets, and prints
// one JSON result as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones (endToEnd); with
// --trace 1 the run records spans around every call into a layer and the
// metrics are the per-layer ones (perLayer). Workloads are described in
// NOTES.md. Run it through run.sh, which builds it and quicknnd from the
// checkout's sources.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	// quicknnd is the path of the daemon binary the HTTP workloads start.
	quicknnd string
	// outDir receives the Perfetto trace of a traced run ("" = none).
	outDir string
}

func main() {
	var (
		cfg   config
		trace int
	)
	flag.StringVar(&cfg.workload, "workload", "", "workload: drive | search-closed | serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "input seed; the same seed gives the same inputs")
	flag.Float64Var(&cfg.seconds, "seconds", 30, "length of the measured window in seconds")
	flag.IntVar(&trace, "trace", 0, "1 = traced run printing the per-layer metrics")
	flag.StringVar(&cfg.quicknnd, "quicknnd", "", "path of the quicknnd binary (HTTP workloads)")
	flag.StringVar(&cfg.outDir, "out", "", "directory for the Perfetto trace of a traced run")
	flag.Parse()
	if trace != 0 && trace != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	cfg.trace = trace == 1

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	res, err := run(ctx, cfg)
	stop()
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	if err := writeReport(os.Stdout, res); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// writeReport prints one line per metric, then the JSON summary as the
// last line.
func writeReport(w io.Writer, res *result) error {
	for _, m := range res.metrics {
		fmt.Fprintf(w, "%-36s %14.6g %s\n", m.name, m.value, m.unit)
	}
	fmt.Fprintf(w, "checked %d answers, %d of %d operations failed\n", res.checked, res.failed, res.attempted)
	line, err := json.Marshal(res.summary())
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(line))
	return err
}

// run validates cfg and runs one workload.
func run(ctx context.Context, cfg config) (*result, error) {
	if cfg.seconds <= 0 {
		return nil, fmt.Errorf("--seconds must be positive, got %g", cfg.seconds)
	}
	var (
		res *result
		err error
	)
	switch cfg.workload {
	case "drive":
		res, err = runDrive(ctx, cfg)
	case "search-closed":
		res, err = runSearchClosed(ctx, cfg)
	case "serve-mixed":
		res, err = runServeMixed(ctx, cfg)
	default:
		return nil, fmt.Errorf("unknown --workload %q (want drive | search-closed | serve-mixed)", cfg.workload)
	}
	if err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", cfg.workload, cfg.seed, err)
	}
	if err := res.finish(cfg.trace); err != nil {
		return nil, fmt.Errorf("%s seed %d: %w", cfg.workload, cfg.seed, err)
	}
	if res.attempted == 0 {
		return nil, fmt.Errorf("%s seed %d: no operation completed in %gs", cfg.workload, cfg.seed, cfg.seconds)
	}
	if res.checked == 0 {
		return nil, fmt.Errorf("%s seed %d: no answer was checked", cfg.workload, cfg.seed)
	}
	if cfg.trace && cfg.outDir != "" && res.spans != nil {
		path := filepath.Join(cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", cfg.workload, cfg.seed))
		if err := res.spans.writeChrome(path); err != nil {
			return nil, err
		}
	}
	return res, nil
}
