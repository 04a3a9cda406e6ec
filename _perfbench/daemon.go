package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"github.com/quicknn/quicknn"
	"github.com/quicknn/quicknn/internal/obs"
)

// daemon is one running quicknnd process.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	waited chan struct{}
}

// startDaemon starts quicknnd on a free loopback port with the given
// extra flags and waits until it listens.
func startDaemon(bin string, flags ...string) (*daemon, error) {
	if bin == "" {
		return nil, errors.New("no quicknnd binary given (--quicknnd)")
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, flags...)...)
	cmd.Stderr = os.Stderr
	// Kill the daemon if the benchmark dies without stopping it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start quicknnd: %w", err)
	}
	d := &daemon{cmd: cmd, waited: make(chan struct{})}
	listening := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if base, ok := strings.CutPrefix(sc.Text(), "quicknnd: listening on "); ok {
				listening <- base
			}
		}
		// Wait only after stdout is drained, as exec.Cmd requires.
		_ = cmd.Wait()
		close(d.waited)
	}()
	select {
	case d.base = <-listening:
		return d, nil
	case <-d.waited:
		return nil, errors.New("quicknnd exited before listening")
	case <-time.After(30 * time.Second):
		d.stop()
		return nil, errors.New("quicknnd did not start listening within 30s")
	}
}

// stop terminates the daemon and waits until it has exited.
func (d *daemon) stop() {
	_ = d.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-d.waited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.waited
	}
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// procStat is the daemon's CPU time and peak RSS read from /proc.
type procStat struct {
	cpuSeconds float64
	hwmMB      float64
}

// clockTicks is USER_HZ, the unit of utime and stime in /proc/<pid>/stat;
// it is 100 on every Linux architecture Go supports.
const clockTicks = 100

func readProc(pid int) (procStat, error) {
	var ps procStat
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return ps, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	rest := stat[bytes.LastIndexByte(stat, ')')+2:]
	f := strings.Fields(string(rest))
	if len(f) < 13 {
		return ps, fmt.Errorf("short /proc/%d/stat", pid)
	}
	ut, err1 := strconv.ParseFloat(f[11], 64)
	st, err2 := strconv.ParseFloat(f[12], 64)
	if err1 != nil || err2 != nil {
		return ps, fmt.Errorf("bad /proc/%d/stat", pid)
	}
	ps.cpuSeconds = (ut + st) / clockTicks
	status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return ps, err
	}
	for _, line := range strings.Split(string(status), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return ps, fmt.Errorf("bad VmHWM in /proc/%d/status", pid)
			}
			ps.hwmMB = kb / 1024
		}
	}
	return ps, nil
}

// resetPeakRSS starts a new VmHWM measurement for pid (0 = this
// process), so the peak excludes set-up. Kernels without the interface
// keep the peak since process start.
func resetPeakRSS(pid int) {
	path := "/proc/self/clear_refs"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/clear_refs", pid)
	}
	_ = os.WriteFile(path, []byte("5"), 0)
}

// client is one keep-alive HTTP connection to the daemon.
type client struct {
	hc   *http.Client
	base string
	buf  bytes.Buffer
}

func newClient(base string) *client {
	return &client{base: base, hc: &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// post sends body to path and returns the status and the reply body,
// which stays valid until the next call on c.
func (c *client) post(path string, body []byte, traceparent string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("traceparent", traceparent)
	}
	return c.do(req)
}

func (c *client) get(path string) (int, []byte, error) {
	req, err := http.NewRequest(http.MethodGet, c.base+path, nil)
	if err != nil {
		return 0, nil, err
	}
	return c.do(req)
}

func (c *client) do(req *http.Request) (int, []byte, error) {
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, err
	}
	c.buf.Reset()
	_, err = c.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.buf.Bytes(), nil
}

// appendTriples appends points as the wire's [[x,y,z],...] array. The
// shortest float32 form decodes back to the identical float32.
func appendTriples(b []byte, pts []quicknn.Point) []byte {
	b = append(b, '[')
	for i, p := range pts {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '[')
		b = strconv.AppendFloat(b, float64(p.X), 'g', -1, 32)
		b = append(b, ',')
		b = strconv.AppendFloat(b, float64(p.Y), 'g', -1, 32)
		b = append(b, ',')
		b = strconv.AppendFloat(b, float64(p.Z), 'g', -1, 32)
		b = append(b, ']')
	}
	return append(b, ']')
}

func frameBody(pts []quicknn.Point) []byte {
	b := append([]byte(`{"points":`), appendTriples(nil, pts)...)
	return append(b, '}')
}

func searchBody(queries []quicknn.Point, mode string) []byte {
	b := append([]byte(`{"queries":`), appendTriples(nil, queries)...)
	return append(b, fmt.Sprintf(`,"k":%d,"mode":%q}`, k, mode)...)
}

// frameReply is the /v1/frame reply fields the benchmark reads.
type frameReply struct {
	Epoch        uint64  `json:"epoch"`
	Points       int     `json:"points"`
	BuildSeconds float64 `json:"build_seconds"`
	BucketMax    int     `json:"bucket_max"`
}

// searchReply is the /v1/search reply fields the benchmark reads.
type searchReply struct {
	Epoch   uint64 `json:"epoch"`
	Results [][]struct {
		Index  int        `json:"index"`
		Point  [3]float32 `json:"point"`
		DistSq float64    `json:"dist_sq"`
	} `json:"results"`
	DegradeLevel int `json:"degrade_level"`
}

// neighbors converts query qi's wire answer.
func (r *searchReply) neighbors(qi int) []quicknn.Neighbor {
	out := make([]quicknn.Neighbor, len(r.Results[qi]))
	for i, nb := range r.Results[qi] {
		out[i] = quicknn.Neighbor{Index: nb.Index, Point: quicknn.Point{X: nb.Point[0], Y: nb.Point[1], Z: nb.Point[2]}, DistSq: nb.DistSq}
	}
	return out
}

// postFrame sends a frame and checks the reply acknowledges all of it.
func postFrame(c *client, body []byte) (frameReply, error) {
	var fr frameReply
	status, resp, err := c.post("/v1/frame", body, "")
	if err != nil {
		return fr, fmt.Errorf("POST /v1/frame: %w", err)
	}
	if status != http.StatusOK {
		return fr, fmt.Errorf("POST /v1/frame: status %d: %s", status, resp)
	}
	if err := json.Unmarshal(resp, &fr); err != nil {
		return fr, fmt.Errorf("POST /v1/frame reply: %w", err)
	}
	if fr.Points != framePoints {
		return fr, fmt.Errorf("POST /v1/frame ingested %d points, want %d", fr.Points, framePoints)
	}
	return fr, nil
}

// scrape reads /v1/metrics into a map from series ("name{labels}") to
// value.
func scrape(c *client) (map[string]float64, error) {
	status, body, err := c.get("/v1/metrics")
	if err != nil {
		return nil, fmt.Errorf("GET /v1/metrics: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET /v1/metrics: status %d", status)
	}
	out := make(map[string]float64)
	for _, line := range strings.Split(string(body), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out, nil
}

// histMean is the mean of the observations a histogram series gained
// between two scrapes (0 when it gained none).
func histMean(before, after map[string]float64, name, labels string) float64 {
	n := after[name+"_count"+labels] - before[name+"_count"+labels]
	if n <= 0 {
		return 0
	}
	return (after[name+"_sum"+labels] - before[name+"_sum"+labels]) / n
}

// flightRecord is the flight-recorder fields the benchmark reads.
type flightRecord struct {
	Trace          string  `json:"trace"`
	Queries        uint32  `json:"queries"`
	Queue          float64 `json:"queue_seconds"`
	Window         float64 `json:"window_seconds"`
	Pickup         float64 `json:"pickup_seconds"`
	Exec           float64 `json:"exec_seconds"`
	Total          float64 `json:"total_seconds"`
	TraversalSteps uint32  `json:"traversal_steps"`
	BucketsVisited uint32  `json:"buckets_visited"`
	PointsScanned  uint32  `json:"points_scanned"`
}

// flightRecords fetches the daemon's flight ring keyed by trace id.
func flightRecords(c *client) (map[obs.TraceID]flightRecord, error) {
	status, body, err := c.get("/v1/debug/quicknn/flightrecorder")
	if err != nil {
		return nil, fmt.Errorf("GET flightrecorder: %w", err)
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("GET flightrecorder: status %d", status)
	}
	var fr struct {
		Records []flightRecord `json:"records"`
	}
	if err := json.Unmarshal(body, &fr); err != nil {
		return nil, fmt.Errorf("flightrecorder reply: %w", err)
	}
	out := make(map[obs.TraceID]flightRecord, len(fr.Records))
	for _, rec := range fr.Records {
		if id, ok := obs.ParseTraceID(rec.Trace); ok {
			out[id] = rec
		}
	}
	return out, nil
}

// traceFor is the trace id the benchmark sends with request n of a
// run: unique per request and seed, never zero.
func traceFor(seed int64, n int) obs.TraceID {
	return obs.TraceID{Hi: uint64(seed)<<1 | 1, Lo: uint64(n) + 1}
}
