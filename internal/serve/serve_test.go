package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"mpicollperf/internal/cluster"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/core"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/serve/wire"
)

func fastSettings() experiment.Settings {
	return experiment.Settings{Confidence: 0.95, Precision: 0.025, MinReps: 3, MaxReps: 30, Warmup: 1}
}

// calibrateGrisou fits a quick real calibration on a 16-node Grisou.
func calibrateGrisou(t testing.TB) (*core.Selector, cluster.Profile) {
	t.Helper()
	pr, err := cluster.Grisou().WithNodes(16)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := core.Calibrate(pr, estimate.AlphaBetaConfig{
		Procs:    8,
		Sizes:    []int{8192, 65536, 524288},
		Settings: fastSettings(),
	})
	if err != nil {
		t.Fatal(err)
	}
	return sel, pr
}

func newTestServer(t testing.TB) *Server {
	t.Helper()
	s, err := New(Config{StoreDir: t.TempDir(), Workers: 2, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// do performs one in-process request against the server.
func do(t testing.TB, s *Server, method, path, body string) *httptest.ResponseRecorder {
	t.Helper()
	var r *http.Request
	if body == "" {
		r = httptest.NewRequest(method, path, nil)
	} else {
		r = httptest.NewRequest(method, path, strings.NewReader(body))
	}
	w := httptest.NewRecorder()
	s.ServeHTTP(w, r)
	return w
}

func decode[T any](t testing.TB, w *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
		t.Fatalf("decoding %q: %v", w.Body.String(), err)
	}
	return v
}

func wantError(t *testing.T, w *httptest.ResponseRecorder, status int, code string) {
	t.Helper()
	if w.Code != status {
		t.Fatalf("status = %d (%s), want %d", w.Code, w.Body.String(), status)
	}
	e := decode[wire.Error](t, w)
	if e.Code != code || e.Version != wire.Version {
		t.Fatalf("error = %+v, want code %q", e, code)
	}
}

func TestHealthz(t *testing.T) {
	s := newTestServer(t)
	w := do(t, s, http.MethodGet, "/healthz", "")
	if w.Code != http.StatusOK {
		t.Fatalf("status %d", w.Code)
	}
	if h := decode[wire.Health](t, w); h.Status != "ok" || h.Version != wire.Version {
		t.Fatalf("health = %+v", h)
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("content type %q", ct)
	}
}

func TestUnknownEndpoint(t *testing.T) {
	s := newTestServer(t)
	wantError(t, do(t, s, http.MethodGet, "/v2/nope", ""), http.StatusNotFound, wire.CodeNotFound)
}

func TestSelectValidation(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		name, method, body string
		status             int
		code               string
	}{
		{"method", http.MethodGet, "", http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed},
		{"malformed", http.MethodPost, `{"profile":`, http.StatusBadRequest, wire.CodeBadRequest},
		{"version", http.MethodPost, `{"version":99,"profile":"grisou","p":4,"m":1}`, http.StatusBadRequest, wire.CodeUnsupportedVersion},
		{"no_profile", http.MethodPost, `{"p":4,"m":1}`, http.StatusBadRequest, wire.CodeBadRequest},
		{"bad_p", http.MethodPost, `{"profile":"grisou","p":0,"m":1}`, http.StatusBadRequest, wire.CodeBadRequest},
		{"bad_op", http.MethodPost, `{"profile":"grisou","op":"scan","p":4,"m":1}`, http.StatusBadRequest, wire.CodeBadRequest},
		{"unknown_profile", http.MethodPost, `{"profile":"summit","p":4,"m":1}`, http.StatusNotFound, wire.CodeUnknownProfile},
		{"not_calibrated", http.MethodPost, `{"profile":"grisou","p":4,"m":1}`, http.StatusNotFound, wire.CodeNotCalibrated},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantError(t, do(t, s, tc.method, "/v1/select", tc.body), tc.status, tc.code)
		})
	}
}

// publish installs a calibrated selector into the server's store and
// hot table the way a finished job would.
func publish(t testing.TB, s *Server, sel *core.Selector, pr cluster.Profile) string {
	t.Helper()
	digest := ProfileDigest(pr)
	if err := s.store.Put(digest, sel); err != nil {
		t.Fatal(err)
	}
	s.table.Set(sel, pr.Name, digest)
	return digest
}

func TestSelectHotAndByDigest(t *testing.T) {
	s := newTestServer(t)
	sel, pr := calibrateGrisou(t)
	digest := publish(t, s, sel, pr)

	for _, key := range []string{pr.Name, digest} {
		w := do(t, s, http.MethodPost, "/v1/select",
			fmt.Sprintf(`{"profile":%q,"op":"bcast","p":16,"m":1048576}`, key))
		if w.Code != http.StatusOK {
			t.Fatalf("key %s: status %d (%s)", key, w.Code, w.Body.String())
		}
		resp := decode[wire.SelectResponse](t, w)
		if resp.Version != wire.Version || resp.Profile != key || resp.Op != core.OpBcast {
			t.Fatalf("response %+v", resp)
		}
		if !strings.HasPrefix(resp.Algorithm, "bcast/") || resp.Predicted <= 0 {
			t.Fatalf("response %+v", resp)
		}
		want, err := sel.BestFor(core.OpBcast, 16, 1<<20)
		if err != nil || resp.Algorithm != want.Algorithm {
			t.Fatalf("daemon picked %q, library picked %q (%v)", resp.Algorithm, want.Algorithm, err)
		}
	}

	// Uncalibrated extended family on a calibrated profile.
	w := do(t, s, http.MethodPost, "/v1/select", `{"profile":"grisou","op":"gather","p":16,"m":8192}`)
	wantError(t, w, http.StatusNotFound, wire.CodeNotCalibrated)
}

// TestSelectColdLoad pins the restart story: a second daemon process
// over the same store serves selects for a profile it never calibrated.
func TestSelectColdLoad(t *testing.T) {
	dir := t.TempDir()
	a, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	sel, _ := calibrateGrisou(t)
	// Persist under the canonical full-grisou digest, where a cold
	// ByName resolution will look. The 16-node calibration carries
	// cluster name "grisou", so attaching it to the full profile is
	// valid.
	if err := a.store.Put(ProfileDigest(cluster.Grisou()), sel); err != nil {
		t.Fatal(err)
	}

	b, err := New(Config{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	w := do(t, b, http.MethodPost, "/v1/select", `{"profile":"grisou","p":8,"m":65536}`)
	if w.Code != http.StatusOK {
		t.Fatalf("cold select: %d (%s)", w.Code, w.Body.String())
	}
	if resp := decode[wire.SelectResponse](t, w); !strings.HasPrefix(resp.Algorithm, "bcast/") {
		t.Fatalf("cold select response %+v", resp)
	}
	// Second select hits the hot table.
	if w := do(t, b, http.MethodPost, "/v1/select", `{"profile":"grisou","p":8,"m":65536}`); w.Code != http.StatusOK {
		t.Fatalf("warm select: %d", w.Code)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := newTestServer(t)
	cases := []struct {
		name, body string
		status     int
		code       string
	}{
		{"bad_json", `{"profile":`, http.StatusBadRequest, wire.CodeBadRequest},
		{"unknown_field", `{"profile":"grisou","reps":9}`, http.StatusBadRequest, wire.CodeBadRequest},
		{"version", `{"version":3,"profile":"grisou"}`, http.StatusBadRequest, wire.CodeUnsupportedVersion},
		{"unknown_profile", `{"profile":"summit"}`, http.StatusNotFound, wire.CodeUnknownProfile},
		{"bad_nodes", `{"profile":"grisou","nodes":5000}`, http.StatusBadRequest, wire.CodeBadRequest},
		{"bad_op", `{"profile":"grisou","ops":["scan"]}`, http.StatusBadRequest, wire.CodeBadRequest},
		{"bad_size", `{"profile":"grisou","sizes":[0]}`, http.StatusBadRequest, wire.CodeBadRequest},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantError(t, do(t, s, http.MethodPost, "/v1/calibrations", tc.body), tc.status, tc.code)
		})
	}
	wantError(t, do(t, s, http.MethodPut, "/v1/calibrations", ""),
		http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed)
	wantError(t, do(t, s, http.MethodGet, "/v1/calibrations/cal-999", ""),
		http.StatusNotFound, wire.CodeNotFound)
	wantError(t, do(t, s, http.MethodDelete, "/v1/calibrations/cal-999", ""),
		http.StatusNotFound, wire.CodeNotFound)
	wantError(t, do(t, s, http.MethodPut, "/v1/calibrations/cal-1", ""),
		http.StatusMethodNotAllowed, wire.CodeMethodNotAllowed)
}

// waitJob polls a job until it reaches a terminal state.
func waitJob(t testing.TB, s *Server, id string) wire.Job {
	t.Helper()
	deadline := time.Now().Add(60 * time.Second)
	for {
		w := do(t, s, http.MethodGet, "/v1/calibrations/"+id, "")
		if w.Code != http.StatusOK {
			t.Fatalf("status poll: %d (%s)", w.Code, w.Body.String())
		}
		j := decode[wire.Job](t, w)
		switch j.State {
		case wire.JobDone, wire.JobFailed, wire.JobCancelled:
			return j
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %s", id, j.State)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCalibrationLifecycle drives the real pipeline end to end over
// HTTP: submit → progress → done → select, including an extended
// family.
func TestCalibrationLifecycle(t *testing.T) {
	s := newTestServer(t)
	w := do(t, s, http.MethodPost, "/v1/calibrations",
		`{"profile":"grisou","nodes":16,"procs":8,"sizes":[8192,65536,524288],"ops":["gather"],"fast":true}`)
	if w.Code != http.StatusAccepted {
		t.Fatalf("submit: %d (%s)", w.Code, w.Body.String())
	}
	sub := decode[wire.Job](t, w)
	if sub.ID == "" || (sub.State != wire.JobQueued && sub.State != wire.JobRunning) {
		t.Fatalf("submitted job %+v", sub)
	}

	j := waitJob(t, s, sub.ID)
	if j.State != wire.JobDone {
		t.Fatalf("job finished %s: %+v", j.State, j)
	}
	if j.Digest == "" || j.Done == 0 || j.Total == 0 || j.Done != j.Total {
		t.Fatalf("done job missing digest/progress: %+v", j)
	}

	// Broadcast and the calibrated extended family both serve.
	for _, body := range []string{
		`{"profile":"grisou","p":16,"m":1048576}`,
		fmt.Sprintf(`{"profile":%q,"op":"gather","p":16,"m":8192}`, j.Digest),
	} {
		w := do(t, s, http.MethodPost, "/v1/select", body)
		if w.Code != http.StatusOK {
			t.Fatalf("select %s: %d (%s)", body, w.Code, w.Body.String())
		}
		if resp := decode[wire.SelectResponse](t, w); resp.Predicted <= 0 {
			t.Fatalf("select %s: %+v", body, resp)
		}
	}

	// The job shows up in the listing.
	lw := do(t, s, http.MethodGet, "/v1/calibrations", "")
	if lw.Code != http.StatusOK {
		t.Fatalf("list: %d", lw.Code)
	}
	list := decode[wire.JobList](t, lw)
	if len(list.Jobs) != 1 || list.Jobs[0].ID != sub.ID {
		t.Fatalf("list = %+v", list)
	}

	// The calibration also landed in the on-disk store.
	if s.store.Len() == 0 {
		t.Fatal("store cache empty after calibration")
	}

	// /metrics exposes the per-endpoint counters.
	mw := do(t, s, http.MethodGet, "/metrics", "")
	if mw.Code != http.StatusOK {
		t.Fatalf("metrics: %d", mw.Code)
	}
	if body := mw.Body.String(); !strings.Contains(body, "serve_requests_total") ||
		!strings.Contains(body, `endpoint="select"`) {
		t.Fatalf("metrics exposition missing serve counters:\n%s", body)
	}
}

// stubJobs replaces the server's manager with one whose runner blocks
// until cancelled, for deterministic lifecycle tests.
func stubJobs(s *Server, workers int) (started chan string) {
	started = make(chan string, 16)
	s.jobs = NewManager(workers, func(ctx context.Context, j *job) (string, error) {
		started <- j.id
		j.progress(1, 10)
		<-ctx.Done()
		return "", ctx.Err()
	})
	return started
}

func TestCancelRunningAndQueued(t *testing.T) {
	s := newTestServer(t)
	started := stubJobs(s, 1)

	wa := do(t, s, http.MethodPost, "/v1/calibrations", `{"profile":"grisou","fast":true}`)
	a := decode[wire.Job](t, wa)
	select {
	case <-started:
	case <-time.After(10 * time.Second):
		t.Fatal("job A never started")
	}
	wb := do(t, s, http.MethodPost, "/v1/calibrations", `{"profile":"gros","fast":true}`)
	b := decode[wire.Job](t, wb)

	// B is queued behind A on the single worker: cancelling it must not
	// need A to finish.
	if w := do(t, s, http.MethodDelete, "/v1/calibrations/"+b.ID, ""); w.Code != http.StatusOK {
		t.Fatalf("cancel queued: %d", w.Code)
	}
	if j := waitJob(t, s, b.ID); j.State != wire.JobCancelled {
		t.Fatalf("queued job ended %s", j.State)
	}

	// Cancel the running job; the runner observes ctx and stops.
	if w := do(t, s, http.MethodDelete, "/v1/calibrations/"+a.ID, ""); w.Code != http.StatusOK {
		t.Fatalf("cancel running: %d", w.Code)
	}
	if j := waitJob(t, s, a.ID); j.State != wire.JobCancelled {
		t.Fatalf("running job ended %s", j.State)
	}

	// Terminal states are sticky: cancelling again stays cancelled.
	if w := do(t, s, http.MethodDelete, "/v1/calibrations/"+a.ID, ""); w.Code != http.StatusOK {
		t.Fatalf("re-cancel: %d", w.Code)
	}
	if j, _ := s.jobs.Snapshot(a.ID); j.State != wire.JobCancelled {
		t.Fatalf("re-cancel flipped state to %s", j.State)
	}
}

func TestManagerCloseRejectsSubmit(t *testing.T) {
	m := NewManager(1, func(ctx context.Context, j *job) (string, error) { return "d", nil })
	if _, err := m.Submit("grisou", wire.CalibrationRequest{}); err != nil {
		t.Fatal(err)
	}
	m.Close()
	if _, err := m.Submit("grisou", wire.CalibrationRequest{}); err == nil {
		t.Fatal("submit after Close must fail")
	}
}

func TestJobFailureSurfaced(t *testing.T) {
	s := newTestServer(t)
	s.jobs = NewManager(1, func(ctx context.Context, j *job) (string, error) {
		return "", errors.New("sweep exploded")
	})
	w := do(t, s, http.MethodPost, "/v1/calibrations", `{"profile":"grisou"}`)
	sub := decode[wire.Job](t, w)
	j := waitJob(t, s, sub.ID)
	if j.State != wire.JobFailed || !strings.Contains(j.Error, "sweep exploded") {
		t.Fatalf("failed job %+v", j)
	}
}

// TestConcurrentSubmitCancelSelect hammers the daemon from many
// goroutines at once — selects on the hot path racing submissions,
// cancellations, listings, and metric scrapes. Run under -race this
// pins the copy-on-write table and job manager synchronisation.
func TestConcurrentSubmitCancelSelect(t *testing.T) {
	s := newTestServer(t)
	sel, pr := calibrateGrisou(t)
	publish(t, s, sel, pr)
	stubJobs(s, 2)

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				w := do(t, s, http.MethodPost, "/v1/select", `{"profile":"grisou","p":16,"m":65536}`)
				if w.Code != http.StatusOK {
					t.Errorf("select: %d", w.Code)
					return
				}
			}
		}()
	}
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				w := do(t, s, http.MethodPost, "/v1/calibrations", `{"profile":"gros","fast":true}`)
				if w.Code != http.StatusAccepted {
					t.Errorf("submit: %d", w.Code)
					return
				}
				j := decode[wire.Job](t, w)
				do(t, s, http.MethodGet, "/v1/calibrations/"+j.ID, "")
				do(t, s, http.MethodDelete, "/v1/calibrations/"+j.ID, "")
				do(t, s, http.MethodGet, "/v1/calibrations", "")
				do(t, s, http.MethodGet, "/metrics", "")
			}
		}()
	}
	wg.Wait()

	// Every submitted job must drain to a terminal state.
	list := s.jobs.List()
	for _, j := range list.Jobs {
		if got := waitJob(t, s, j.ID); got.State != wire.JobCancelled && got.State != wire.JobDone {
			t.Fatalf("job %s ended %s", j.ID, got.State)
		}
	}
}

func TestProfileDigest(t *testing.T) {
	a := ProfileDigest(cluster.Grisou())
	if a != ProfileDigest(cluster.Grisou()) {
		t.Fatal("digest not deterministic")
	}
	if !strings.HasPrefix(a, "sha256-") {
		t.Fatalf("digest %q", a)
	}
	small, err := cluster.Grisou().WithNodes(16)
	if err != nil {
		t.Fatal(err)
	}
	if ProfileDigest(small) == a || ProfileDigest(cluster.Gros()) == a {
		t.Fatal("different platforms must digest differently")
	}
}

func TestStoreLRUAndMiss(t *testing.T) {
	st, err := NewStore(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	sel, pr := calibrateGrisou(t)
	d1 := ProfileDigest(pr)
	if err := st.Put(d1, sel); err != nil {
		t.Fatal(err)
	}
	// A second digest evicts the first from the 1-entry cache...
	if err := st.Put("sha256-other", sel); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 1 {
		t.Fatalf("cache len %d, want 1", st.Len())
	}
	// ...but the first still loads from disk.
	got, err := st.Get(pr, d1)
	if err != nil || got == nil {
		t.Fatalf("reload after eviction: %v", err)
	}
	// Unknown digests report ErrNotCalibrated.
	if _, err := st.Get(pr, "sha256-missing"); !errors.Is(err, core.ErrNotCalibrated) {
		t.Fatalf("missing digest error = %v", err)
	}
}

// TestStorePutIsAtomic rewrites one digest's file while another goroutine
// loads it: a reader must see a whole calibration every time, never a
// truncated or half-written file.
func TestStorePutIsAtomic(t *testing.T) {
	dir := t.TempDir()
	st, err := NewStore(dir, 1)
	if err != nil {
		t.Fatal(err)
	}
	sel, pr := calibrateGrisou(t)
	d := ProfileDigest(pr)
	if err := st.Put(d, sel); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		for i := 0; i < 200; i++ {
			if err := st.Put(d, sel); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for reads := 0; ; reads++ {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(entries) != 1 {
				t.Fatalf("store holds %d files after the puts, want 1 (no temporaries left)", len(entries))
			}
			t.Logf("%d loads during 200 puts", reads)
			return
		default:
		}
		if _, err := core.LoadModels(pr, st.path(d)); err != nil {
			t.Fatalf("load %d during puts: %v", reads, err)
		}
	}
}

func TestTableCopyOnWrite(t *testing.T) {
	tab := NewTable()
	if tab.Lookup([]byte("x")) != nil || tab.Len() != 0 {
		t.Fatal("empty table")
	}
	sel := &core.Selector{}
	tab.Set(sel, "grisou", "sha256-abc")
	if tab.Len() != 2 {
		t.Fatalf("len %d", tab.Len())
	}
	e := tab.Lookup([]byte("grisou"))
	if e == nil || e.sel != sel || e.key != "grisou" {
		t.Fatalf("entry %+v", e)
	}
	if e := tab.Lookup([]byte("sha256-abc")); e == nil || e.key != "sha256-abc" {
		t.Fatalf("digest entry %+v", e)
	}
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without StoreDir must fail")
	}
}

// TestJobProgressSpansAllSweeps checks a job's progress across the
// broadcast sweep and every extended family's sweep: total is the size
// of all the grids from the first report on, done never goes backwards,
// and the finished job reports done == total.
func TestJobProgressSpansAllSweeps(t *testing.T) {
	s := newTestServer(t)
	req := wire.CalibrationRequest{Profile: "grisou", Nodes: 16, Procs: 8, Sizes: []int{8192, 65536, 524288},
		Ops: []string{"gather", "allreduce"}, Fast: true}
	pr, err := resolveProfile(req)
	if err != nil {
		t.Fatal(err)
	}
	fams := estimate.AllSpecFamilies()
	specs := len(coll.BcastAlgorithms()) + len(fams["gather"]) + len(fams["allreduce"])
	want := int64(min(pr.MaxLinearFanout, pr.Nodes) - 1 + specs*len(req.Sizes))

	j := &job{req: req}
	errc := make(chan error, 1)
	go func() {
		_, err := s.runJob(context.Background(), j)
		errc <- err
	}()
	var last int64
	for finished := false; !finished; {
		select {
		case err := <-errc:
			if err != nil {
				t.Fatal(err)
			}
			finished = true
		default:
			time.Sleep(50 * time.Microsecond)
		}
		done, total := j.done.Load(), j.total.Load()
		if total != 0 && total != want {
			t.Fatalf("total = %d, want %d (every sweep's grid)", total, want)
		}
		if done < last {
			t.Fatalf("done went backwards: %d after %d", done, last)
		}
		last = done
	}
	if done, total := j.done.Load(), j.total.Load(); done != want || total != want {
		t.Fatalf("finished job at %d/%d, want %d/%d", done, total, want, want)
	}
}
