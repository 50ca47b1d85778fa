package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"mpicollperf"
	"mpicollperf/internal/core"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/serve"
	"mpicollperf/internal/serve/wire"
)

const (
	// selectRate is the open loop's fixed request rate: about a seventh
	// of what the closed loop sustains, so the open-loop percentiles
	// describe a lightly loaded server.
	selectRate = 8000
	// selectConns is the number of keep-alive connections (and load
	// goroutines) the loops use: the machine has two cores.
	selectConns = 2
	// mixSize is the number of distinct seeded queries the loops cycle.
	mixSize = 4096
	// roundOpen and roundClosed are the lengths of one select round's
	// open-loop and closed-loop phases.
	roundOpen   = 125 * time.Millisecond
	roundClosed = 125 * time.Millisecond
	// spanHeader carries a client span's "op:id" to the traced handler.
	spanHeader = "X-Perfbench-Span"
)

// serveFastSettings mirror the daemon's settings for "fast" calibration
// jobs, so the in-process reference selector computes the same bits.
var serveFastSettings = experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 30, Warmup: 1}

// jobRequest calibrates broadcast plus every extended family on a
// 16-node grisou with the fast settings: the select path does not
// depend on the calibration's scale, and this keeps set-up short.
func jobRequest() wire.CalibrationRequest {
	return wire.CalibrationRequest{Version: wire.Version, Profile: "grisou", Nodes: 16, Fast: true, Ops: mpicollperf.Collectives()}
}

// daemon is an in-process mpicollperfd on a loopback port.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	url    string
	addr   string
	reg    *obs.Registry
	dir    string
	served chan error
}

func startDaemon(dir string, tr *tracer) (*daemon, error) {
	reg := obs.NewRegistry()
	srv, err := serve.New(serve.Config{StoreDir: dir, Workers: 1, Metrics: reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	var h http.Handler = srv
	if tr != nil {
		h = tracedHandler{next: srv, tr: tr}
	}
	d := &daemon{srv: srv, hs: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), addr: ln.Addr().String(), reg: reg, dir: dir, served: make(chan error, 1)}
	go func() { d.served <- d.hs.Serve(ln) }()
	return d, nil
}

// close shuts the HTTP server down, waits for it, drains the job manager
// and removes the store.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	_ = d.hs.Shutdown(ctx) // a timeout leaves only idle connections behind; Serve has returned either way
	<-d.served
	d.srv.Close()
	_ = os.RemoveAll(d.dir) // scratch store inside the build directory
}

// tracedHandler records a serve-layer span for every request that
// carries a client span, parented to it.
type tracedHandler struct {
	next http.Handler
	tr   *tracer
}

func (t tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	v := r.Header.Get(spanHeader)
	if v == "" {
		t.next.ServeHTTP(w, r)
		return
	}
	opS, parS, _ := strings.Cut(v, ":")
	op, _ := strconv.ParseInt(opS, 10, 64)
	par, _ := strconv.ParseInt(parS, 10, 64)
	sp := t.tr.start(op, par, "serve", "serve.Server.ServeHTTP "+r.URL.Path)
	t.next.ServeHTTP(w, r)
	sp.end()
}

// runJob submits req through POST /v1/calibrations and polls until the
// job is done, returning the submit-to-done time.
func (d *daemon) runJob(ctx context.Context, req wire.CalibrationRequest) (time.Duration, error) {
	c := &http.Client{Timeout: 30 * time.Second}
	defer c.CloseIdleConnections()
	body, err := json.Marshal(req)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	var job wire.Job
	if err := getJSON(c, http.MethodPost, d.url+"/v1/calibrations", body, http.StatusAccepted, &job); err != nil {
		return 0, fmt.Errorf("submitting calibration: %w", err)
	}
	for {
		switch job.State {
		case wire.JobDone:
			return time.Since(t0), nil
		case wire.JobFailed, wire.JobCancelled:
			return 0, fmt.Errorf("calibration job %s %s: %s", job.ID, job.State, job.Error)
		}
		select {
		case <-ctx.Done():
			return 0, ctx.Err()
		case <-time.After(2 * time.Millisecond):
		}
		if err := getJSON(c, http.MethodGet, d.url+"/v1/calibrations/"+job.ID, nil, http.StatusOK, &job); err != nil {
			return 0, fmt.Errorf("polling calibration: %w", err)
		}
	}
}

func getJSON(c *http.Client, method, url string, body []byte, want int, v any) error {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	resp, err := c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("%s %s: status %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(data))
	}
	return json.Unmarshal(data, v)
}

// query is one select of the seeded mix with the exact response an
// in-process BestFor on the same question produces.
type query struct {
	op         string
	p, m       int
	resp       wire.SelectResponse
	body, want []byte
}

// selectState is a calibrated daemon plus the mix the load loops send.
type selectState struct {
	d       *daemon
	ref     *mpicollperf.Selector
	queries []query
	conns   []*conn
	jobTime time.Duration

	mu       sync.Mutex
	failures []string
}

// prepareSelect boots a daemon, calibrates it through its own API,
// builds the same selector in process, and derives the query mix.
func (b *bench) prepareSelect(ctx context.Context) (*selectState, error) {
	b.storeSeq++
	dir := filepath.Join(b.cfg.outDir, "store", fmt.Sprintf("%d-%d", os.Getpid(), b.storeSeq))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	d, err := startDaemon(dir, b.tr)
	if err != nil {
		return nil, err
	}
	s := &selectState{d: d}
	for i := 0; i < selectConns; i++ {
		c, err := dial(d.addr)
		if err != nil {
			s.close()
			return nil, err
		}
		s.conns = append(s.conns, c)
	}
	if s.jobTime, err = d.runJob(ctx, jobRequest()); err != nil {
		s.close()
		return nil, err
	}
	if s.ref, err = referenceSelector(ctx); err != nil {
		s.close()
		return nil, err
	}
	if s.queries, err = buildMix(b.cfg.seed, s.ref, mixSize); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// referenceSelector calibrates in process what jobRequest asks the
// daemon for, with the daemon's configuration.
func referenceSelector(ctx context.Context) (*mpicollperf.Selector, error) {
	req := jobRequest()
	pr, err := mpicollperf.Grisou().WithNodes(req.Nodes)
	if err != nil {
		return nil, err
	}
	cfg := mpicollperf.CalibrationConfig{Settings: serveFastSettings}
	sel, err := core.CalibrateCtx(ctx, pr, cfg)
	if err != nil {
		return nil, err
	}
	for _, op := range req.Ops {
		if err := sel.CalibrateExtendedOp(ctx, op, cfg); err != nil {
			return nil, err
		}
	}
	return sel, nil
}

// buildMix draws n selects: a family out of bcast and the seven extended
// ones, P uniform in [2, 90], m log-uniform in [8 B, 4 MiB].
func buildMix(seed int64, ref *mpicollperf.Selector, n int) ([]query, error) {
	rng := rand.New(rand.NewSource(seed))
	ops := append([]string{mpicollperf.OpBcast}, mpicollperf.Collectives()...)
	lo, hi := math.Log(8), math.Log(4<<20)
	out := make([]query, n)
	for i := range out {
		op := ops[rng.Intn(len(ops))]
		p := 2 + rng.Intn(89)
		m := int(math.Round(math.Exp(lo + rng.Float64()*(hi-lo))))
		ch, err := ref.BestFor(op, p, m)
		if err != nil {
			return nil, fmt.Errorf("reference BestFor(%s, %d, %d): %w", op, p, m, err)
		}
		q := query{op: op, p: p, m: m, resp: wire.SelectResponse{
			Version: wire.Version, Profile: "grisou", Op: ch.Op, Algorithm: ch.Algorithm,
			SegSize: ch.SegSize, Predicted: ch.Predicted,
		}}
		q.body = fmt.Appendf(nil, `{"version":%d,"profile":"grisou","op":%q,"p":%d,"m":%d}`, wire.Version, op, p, m)
		q.want = wire.AppendSelectResponse(nil, &q.resp)
		out[i] = q
	}
	return out, nil
}

func (s *selectState) close() {
	for _, c := range s.conns {
		_ = c.close() // only read from; the daemon shuts down next
	}
	s.d.close()
}

// do sends query i over connection conn and checks the answer.
func (s *selectState) do(conn, i int) error { return s.send(conn, i, nil, 0, 0) }

// send is do with an optional client span whose id travels to the
// traced handler.
func (s *selectState) send(conn, i int, tr *tracer, op, parent int64) error {
	q := &s.queries[i%len(s.queries)]
	header := ""
	sp := tr.start(op, parent, "loopback", "POST /v1/select")
	if sp != nil {
		header = fmt.Sprintf("%s: %d:%d\r\n", spanHeader, op, sp.ID())
	}
	status, body, err := s.conns[conn].post("/v1/select", q.body, header)
	sp.end()
	switch {
	case err != nil:
		return s.fail(err)
	case status != http.StatusOK:
		return s.fail(fmt.Errorf("select %s: status %d: %s", q.body, status, bytes.TrimSpace(body)))
	case !bytes.Equal(body, q.want):
		return s.fail(fmt.Errorf("select %s: got %s, in-process BestFor gives %s", q.body, body, q.want))
	}
	return nil
}

// fail keeps the first few failure messages for the report.
func (s *selectState) fail(err error) error {
	s.mu.Lock()
	if len(s.failures) < 5 {
		s.failures = append(s.failures, err.Error())
	}
	s.mu.Unlock()
	return err
}

// selectRounds alternates the two load phases: each round is an open
// loop of roundOpen at selectRate, whose p90 and p99 are one sample each
// (1000 requests, 10 beyond p99), then a closed loop of roundClosed,
// one select_qps sample. The 2-core VM the benchmark was built on
// stalls a thread for 1–7 ms two or three times a second; a window that
// catches one reads a p99 of several milliseconds. Short windows leave
// most windows clear, so the median over rounds measures the server
// rather than the host.
func (b *bench) selectRounds(ctx context.Context, s *selectState, rounds int) {
	for r := 0; r < rounds; r++ {
		settle()
		open := openLoop(ctx, selectRate, roundOpen, selectConns, s.do)
		closed := closedLoop(ctx, roundClosed, selectConns, s.do)
		for _, res := range []loadResult{open, closed} {
			b.attempted += res.Attempted
			b.failed += res.Failed
		}
		b.samples["select_latency"] = append(b.samples["select_latency"], open.Latency...)
		b.samples["select_late"] = append(b.samples["select_late"], open.Late...)
		for _, p := range []float64{90, 99} {
			if v, ok := tailPercentile(open.Latency, p, 10); ok {
				b.add(fmt.Sprintf("select_p%g", p), v)
			}
		}
		if closed.Elapsed > 0 {
			b.add("select_qps", float64(len(closed.Latency))/closed.Elapsed.Seconds())
		}
	}
	s.mu.Lock()
	b.failures = append(b.failures, s.failures...)
	s.failures = nil
	s.mu.Unlock()
}
