// Package serve implements mpicollperfd, the calibration-as-a-service
// daemon: an HTTP/JSON server answering run-time algorithm-selection
// queries from calibrated models at memory speed, and running
// calibration sweeps as cancellable asynchronous jobs.
//
// The wire contract lives in the versioned subpackage
// internal/serve/wire. Endpoints:
//
//	POST   /v1/select             hot path: (profile, op, P, m) → winner
//	POST   /v1/calibrations       submit an async calibration job (202)
//	GET    /v1/calibrations       list jobs
//	GET    /v1/calibrations/{id}  job status + sweep progress
//	DELETE /v1/calibrations/{id}  cancel a job
//	GET    /metrics               Prometheus exposition (internal/obs)
//	GET    /healthz               liveness
//
// The select path is allocation-free after warm-up: pooled request
// buffers, the wire package's zero-copy codec, a copy-on-write selector
// table read with one atomic load, and core.Selector.BestFor's
// allocation-free argmin. Finished calibrations are persisted in a
// content-addressed store (profile digest + schema version) and served
// from an in-memory LRU; selects against a profile calibrated by an
// earlier daemon process lazily reload it from the store.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/core"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/serve/wire"
)

// bufPool pools request/response buffers for the hot select path. Get
// and Put trade *[]byte so the slice header itself never escapes to the
// heap per request.
type bufPool struct {
	p sync.Pool
}

func (bp *bufPool) Get() *[]byte {
	if v := bp.p.Get(); v != nil {
		return v.(*[]byte)
	}
	b := make([]byte, 0, 512)
	return &b
}

func (bp *bufPool) Put(ptr *[]byte, buf []byte) {
	*ptr = buf[:0]
	bp.p.Put(ptr)
}

// Config parameterises a Server.
type Config struct {
	// StoreDir is the calibration store directory (required).
	StoreDir string
	// Workers bounds concurrently running calibration jobs (default 1).
	Workers int
	// CacheCap bounds the store's in-memory selector LRU (default 8).
	CacheCap int
	// MeasureWorkers bounds each calibration sweep's measurement
	// concurrency (0 = GOMAXPROCS).
	MeasureWorkers int
	// Metrics receives request and calibration metrics; nil means a
	// fresh registry (exposed on /metrics either way).
	Metrics *obs.Registry
	// MaxBody bounds request body sizes in bytes (default 1 MiB).
	MaxBody int
}

// endpointMetrics are one endpoint's precomputed metric handles —
// resolved once at construction so the hot path never touches the
// registry's name-keyed maps.
type endpointMetrics struct {
	reqs *obs.Counter
	errs *obs.Counter
	lat  *obs.Histogram
}

func newEndpointMetrics(reg *obs.Registry, endpoint string) endpointMetrics {
	return endpointMetrics{
		reqs: reg.Counter(obs.Name("serve_requests_total", "endpoint", endpoint)),
		errs: reg.Counter(obs.Name("serve_errors_total", "endpoint", endpoint)),
		lat:  reg.Histogram(obs.Name("serve_request_seconds", "endpoint", endpoint)),
	}
}

// Server is the daemon's HTTP handler plus its backing state: hot
// selector table, calibration store, and job manager. Create with New,
// serve via http.Server, stop with Close.
type Server struct {
	cfg     Config
	metrics *obs.Registry
	store   *Store
	table   *Table
	jobs    *Manager

	mSelect  endpointMetrics
	mCals    endpointMetrics
	mCal     endpointMetrics
	mMetrics endpointMetrics
	mHealth  endpointMetrics

	buffers bufPool
}

// New builds a Server from cfg, opening (or creating) the calibration
// store.
func New(cfg Config) (*Server, error) {
	if cfg.StoreDir == "" {
		return nil, errors.New("serve: Config.StoreDir is required")
	}
	if cfg.CacheCap == 0 {
		cfg.CacheCap = 8
	}
	if cfg.MaxBody == 0 {
		cfg.MaxBody = 1 << 20
	}
	store, err := NewStore(cfg.StoreDir, cfg.CacheCap)
	if err != nil {
		return nil, err
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = obs.NewRegistry()
	}
	s := &Server{
		cfg:      cfg,
		metrics:  reg,
		store:    store,
		table:    NewTable(),
		mSelect:  newEndpointMetrics(reg, "select"),
		mCals:    newEndpointMetrics(reg, "calibrations"),
		mCal:     newEndpointMetrics(reg, "calibration"),
		mMetrics: newEndpointMetrics(reg, "metrics"),
		mHealth:  newEndpointMetrics(reg, "healthz"),
	}
	s.jobs = NewManager(cfg.Workers, s.runJob)
	return s, nil
}

// Close drains in-flight calibration jobs and rejects new submissions;
// the graceful-shutdown path after http.Server.Shutdown.
func (s *Server) Close() {
	s.jobs.Close()
}

// ServeHTTP routes the daemon's endpoints.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	switch path := r.URL.Path; {
	case path == "/v1/select":
		s.handleSelect(w, r)
	case path == "/v1/calibrations":
		s.handleCalibrations(w, r)
	case strings.HasPrefix(path, "/v1/calibrations/"):
		s.handleCalibration(w, r, path[len("/v1/calibrations/"):])
	case path == "/metrics":
		s.handleMetrics(w, r)
	case path == "/healthz":
		s.handleHealth(w, r)
	default:
		s.writeError(w, http.StatusNotFound, wire.CodeNotFound, "no such endpoint")
	}
}

// jsonCT is the shared Content-Type value; assigning it into the header
// map directly avoids the per-request slice allocation of Header().Set.
var jsonCT = []string{"application/json"}

// opIntern maps collective-family names (and the "" default) to
// canonical interned strings, so the hot path converts the parsed op
// bytes to a string without allocating.
var opIntern = func() map[string]string {
	m := map[string]string{"": core.OpBcast, core.OpBcast: core.OpBcast}
	for name := range estimate.AllSpecFamilies() {
		m[name] = name
	}
	return m
}()

// handleSelect is the hot path: parse, look up, select, encode — all
// allocation-free once the profile is resident in the hot table.
func (s *Server) handleSelect(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.mSelect.reqs.Inc()
	if r.Method != http.MethodPost {
		s.mSelect.errs.Inc()
		s.writeError(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "select is POST-only")
		return
	}
	bp := s.buffers.Get()
	buf, err := readInto(r.Body, (*bp)[:0], s.cfg.MaxBody)
	if err != nil {
		s.buffers.Put(bp, buf)
		s.selectError(w, http.StatusBadRequest, wire.CodeBadRequest, "reading body: "+err.Error())
		return
	}

	var v wire.SelectRequestView
	if err := wire.ParseSelectRequest(buf, &v); err != nil {
		s.buffers.Put(bp, buf)
		s.selectError(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
		return
	}
	if v.Version != 0 && v.Version != wire.Version {
		s.buffers.Put(bp, buf)
		s.selectError(w, http.StatusBadRequest, wire.CodeUnsupportedVersion,
			fmt.Sprintf("wire version %d not supported (this daemon speaks %d)", v.Version, wire.Version))
		return
	}
	if v.P < 1 || v.M < 0 || len(v.Profile) == 0 {
		s.buffers.Put(bp, buf)
		s.selectError(w, http.StatusBadRequest, wire.CodeBadRequest, "need profile, p >= 1, m >= 0")
		return
	}
	op, ok := opIntern[string(v.Op)]
	if !ok {
		s.buffers.Put(bp, buf)
		s.selectError(w, http.StatusBadRequest, wire.CodeBadRequest, "unknown collective family "+string(v.Op))
		return
	}

	entry := s.table.Lookup(v.Profile)
	if entry == nil {
		// Slow path (once per profile): resolve the name and pull the
		// calibration from the store into the hot table.
		var status int
		var code, msg string
		entry, status, code, msg = s.resolveCold(string(v.Profile))
		if entry == nil {
			s.buffers.Put(bp, buf)
			s.selectError(w, status, code, msg)
			return
		}
	}

	choice, err := entry.sel.BestFor(op, v.P, v.M)
	if err != nil {
		s.buffers.Put(bp, buf)
		if errors.Is(err, core.ErrNotCalibrated) {
			s.selectError(w, http.StatusNotFound, wire.CodeNotCalibrated, err.Error())
		} else {
			s.selectError(w, http.StatusInternalServerError, wire.CodeInternal, err.Error())
		}
		return
	}

	// The request bytes are fully extracted; reuse the buffer for the
	// response body.
	resp := wire.SelectResponse{
		Version:   wire.Version,
		Profile:   entry.key,
		Op:        choice.Op,
		Algorithm: choice.Algorithm,
		SegSize:   choice.SegSize,
		Predicted: choice.Predicted,
	}
	out := wire.AppendSelectResponse(buf[:0], &resp)
	h := w.Header()
	h["Content-Type"] = jsonCT
	w.WriteHeader(http.StatusOK)
	w.Write(out)
	s.buffers.Put(bp, out)
	s.mSelect.lat.Observe(time.Since(start).Seconds())
}

// selectError records and writes a select-path error (not hot; may
// allocate).
func (s *Server) selectError(w http.ResponseWriter, status int, code, msg string) {
	s.mSelect.errs.Inc()
	s.writeError(w, status, code, msg)
}

// resolveCold loads a profile's calibration from the store into the hot
// table, keyed by both name and digest. On failure it returns a nil
// entry plus the HTTP status, wire code, and message to report.
func (s *Server) resolveCold(name string) (_ *tableEntry, status int, code, msg string) {
	pr, err := cluster.ByName(name)
	if err != nil {
		return nil, http.StatusNotFound, wire.CodeUnknownProfile, err.Error()
	}
	digest := ProfileDigest(pr)
	sel, err := s.store.Get(pr, digest)
	if errors.Is(err, core.ErrNotCalibrated) {
		return nil, http.StatusNotFound, wire.CodeNotCalibrated,
			fmt.Sprintf("profile %s has no stored calibration; submit one via POST /v1/calibrations", name)
	}
	if err != nil {
		return nil, http.StatusInternalServerError, wire.CodeInternal, err.Error()
	}
	s.table.Set(sel, name, digest)
	return s.table.Lookup([]byte(name)), 0, "", ""
}

// fastServeSettings are the low-repetition measurement settings behind
// CalibrationRequest.Fast — the same shape the repo's tests use.
var fastServeSettings = experiment.Settings{
	Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 30, Warmup: 1,
}

// resolveProfile turns a calibration request into a platform profile.
func resolveProfile(req wire.CalibrationRequest) (cluster.Profile, error) {
	pr, err := cluster.ByName(req.Profile)
	if err != nil {
		return cluster.Profile{}, err
	}
	if req.Nodes > 0 {
		pr, err = pr.WithNodes(req.Nodes)
		if err != nil {
			return cluster.Profile{}, err
		}
	}
	return pr, nil
}

// runJob executes one calibration job: one sweep over the broadcast
// calibration and every requested extended family (core.CalibrateCtx),
// then persistence and hot-table publication. The job's progress is that
// sweep's own (done, total), so it never goes backwards and ends at
// done == total.
// Extended-family selectors live in memory only — the store's schema
// persists the broadcast models; a daemon restart re-runs extended
// calibrations.
func (s *Server) runJob(ctx context.Context, j *job) (string, error) {
	pr, err := resolveProfile(j.req)
	if err != nil {
		return "", err
	}
	cfg := estimate.AlphaBetaConfig{
		Procs:    j.req.Procs,
		Sizes:    j.req.Sizes,
		Workers:  s.cfg.MeasureWorkers,
		Progress: func(done, total int, _ experiment.Result) { j.progress(done, total) },
		Metrics:  s.metrics,
	}
	if j.req.Fast {
		cfg.Settings = fastServeSettings
	}
	sel, err := core.CalibrateCtx(ctx, pr, cfg, j.req.Ops...)
	if err != nil {
		return "", err
	}
	digest := ProfileDigest(pr)
	if err := s.store.Put(digest, sel); err != nil {
		return "", err
	}
	s.table.Set(sel, pr.Name, digest)
	return digest, nil
}

// handleCalibrations serves POST (submit) and GET (list) on
// /v1/calibrations.
func (s *Server) handleCalibrations(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.mCals.reqs.Inc()
	defer func() { s.mCals.lat.Observe(time.Since(start).Seconds()) }()
	switch r.Method {
	case http.MethodGet:
		s.writeJSON(w, http.StatusOK, s.jobs.List())
	case http.MethodPost:
		var req wire.CalibrationRequest
		dec := json.NewDecoder(io.LimitReader(r.Body, int64(s.cfg.MaxBody)))
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			s.mCals.errs.Inc()
			s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
			return
		}
		if req.Version != 0 && req.Version != wire.Version {
			s.mCals.errs.Inc()
			s.writeError(w, http.StatusBadRequest, wire.CodeUnsupportedVersion,
				fmt.Sprintf("wire version %d not supported", req.Version))
			return
		}
		pr, err := cluster.ByName(req.Profile)
		if err != nil {
			s.mCals.errs.Inc()
			s.writeError(w, http.StatusNotFound, wire.CodeUnknownProfile, err.Error())
			return
		}
		if req.Nodes > 0 {
			if _, err := pr.WithNodes(req.Nodes); err != nil {
				s.mCals.errs.Inc()
				s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest, err.Error())
				return
			}
		}
		if msg := checkCalibrationLists(req); msg != "" {
			s.mCals.errs.Inc()
			s.writeError(w, http.StatusBadRequest, wire.CodeBadRequest, msg)
			return
		}
		job, err := s.jobs.Submit(req.Profile, req)
		if err != nil {
			s.mCals.errs.Inc()
			s.writeError(w, http.StatusServiceUnavailable, wire.CodeInternal, err.Error())
			return
		}
		s.writeJSON(w, http.StatusAccepted, job)
	default:
		s.mCals.errs.Inc()
		s.writeError(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "GET or POST")
	}
}

// checkCalibrationLists validates a calibration request's ops and sizes:
// every op a known extended family, every size positive, and neither
// list holding a duplicate — a duplicate would be measured again, so a
// body of repeated entries could queue an arbitrarily long job. It
// returns the reason for rejecting the request, or "".
func checkCalibrationLists(req wire.CalibrationRequest) string {
	fams := estimate.AllSpecFamilies()
	seenOp := make(map[string]bool, len(req.Ops))
	for _, op := range req.Ops {
		if _, ok := fams[op]; !ok {
			return "unknown collective family " + op
		}
		if seenOp[op] {
			return "duplicate collective family " + op
		}
		seenOp[op] = true
	}
	seenSize := make(map[int]bool, len(req.Sizes))
	for _, m := range req.Sizes {
		if m < 1 {
			return "sizes must be positive"
		}
		if seenSize[m] {
			return fmt.Sprintf("duplicate size %d", m)
		}
		seenSize[m] = true
	}
	return ""
}

// handleCalibration serves GET (status) and DELETE (cancel) on
// /v1/calibrations/{id}.
func (s *Server) handleCalibration(w http.ResponseWriter, r *http.Request, id string) {
	start := time.Now()
	s.mCal.reqs.Inc()
	defer func() { s.mCal.lat.Observe(time.Since(start).Seconds()) }()
	switch r.Method {
	case http.MethodGet:
		job, ok := s.jobs.Snapshot(id)
		if !ok {
			s.mCal.errs.Inc()
			s.writeError(w, http.StatusNotFound, wire.CodeNotFound, "no such job "+id)
			return
		}
		s.writeJSON(w, http.StatusOK, job)
	case http.MethodDelete:
		if !s.jobs.Cancel(id) {
			s.mCal.errs.Inc()
			s.writeError(w, http.StatusNotFound, wire.CodeNotFound, "no such job "+id)
			return
		}
		job, _ := s.jobs.Snapshot(id)
		s.writeJSON(w, http.StatusOK, job)
	default:
		s.mCal.errs.Inc()
		s.writeError(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "GET or DELETE")
	}
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	s.mMetrics.reqs.Inc()
	if r.Method != http.MethodGet {
		s.mMetrics.errs.Inc()
		s.writeError(w, http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed, "GET only")
		return
	}
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.metrics.WritePrometheus(w)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mHealth.reqs.Inc()
	s.writeJSON(w, http.StatusOK, wire.Health{Version: wire.Version, Status: "ok"})
}

func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	h := w.Header()
	h["Content-Type"] = jsonCT
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, code, msg string) {
	s.writeJSON(w, status, wire.Error{Version: wire.Version, Code: code, Message: msg})
}

// readInto reads body into buf (reusing its capacity) up to max bytes.
func readInto(body io.Reader, buf []byte, max int) ([]byte, error) {
	for {
		if len(buf) == cap(buf) {
			if len(buf) >= max {
				return buf, errors.New("request body too large")
			}
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := body.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			return buf, nil
		}
		if err != nil {
			return buf, err
		}
	}
}
