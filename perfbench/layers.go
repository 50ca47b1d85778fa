package main

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"mpicollperf"
	"mpicollperf/internal/coll"
	"mpicollperf/internal/core"
	"mpicollperf/internal/estimate"
	"mpicollperf/internal/experiment"
	"mpicollperf/internal/mpi"
	"mpicollperf/internal/obs"
	"mpicollperf/internal/serve"
	"mpicollperf/internal/serve/wire"
	"mpicollperf/internal/simnet"
	"mpicollperf/internal/stats"
)

// layerMetrics collects the traced run's per-layer values.
type layerMetrics map[string]value

func (m layerMetrics) set(name string, v float64, n int) {
	for _, d := range perLayer {
		if d.Name == name {
			m[name] = value{V: v, Unit: d.Unit, N: n}
			return
		}
	}
	panic("perfbench: metric not in the catalogue: " + name)
}

// procSample is the process's resource use at one instant.
type procSample struct {
	cpu   time.Duration
	alloc uint64
	gc    uint32
}

func readProc() procSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return procSample{cpu: processCPU(), alloc: ms.TotalAlloc, gc: ms.NumGC}
}

// heapSampler polls the live heap until stopped and returns its peak.
func heapSampler() (stop func() float64) {
	done := make(chan struct{})
	peak := make(chan uint64, 1)
	go func() {
		var ms runtime.MemStats
		var max uint64
		tick := time.NewTicker(50 * time.Millisecond)
		defer tick.Stop()
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > max {
				max = ms.HeapAlloc
			}
			select {
			case <-done:
				peak <- max
				return
			case <-tick.C:
			}
		}
	}()
	return func() float64 {
		close(done)
		return float64(<-peak) / 1e6
	}
}

// untraced runs f with span recording switched off.
func (b *bench) untraced(f func()) {
	tr := b.tr
	b.tr = nil
	defer func() { b.tr = tr }()
	f()
}

// runLayers is the traced run: the workload's operation once untraced
// and once traced (their difference is the tracing overhead), then a
// probe of every layer, with spans around each call into a layer.
func (b *bench) runLayers(ctx context.Context) (layerMetrics, error) {
	stopHeap := heapSampler()
	m := layerMetrics{}
	st, err := b.prepare(ctx, b.cfg.workload)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	var plain time.Duration
	p0 := readProc()
	b.untraced(func() { plain = b.focusOnce(ctx, st) })
	p1 := readProc()
	traced := b.focusOnce(ctx, st)
	st.close()
	m.set("proc.cpu_s", (p1.cpu - p0.cpu).Seconds(), 1)
	m.set("proc.alloc_mb", float64(p1.alloc-p0.alloc)/1e6, 1)
	m.set("proc.gc_cycles", float64(p1.gc-p0.gc), 1)
	m.set("trace.overhead_ms", (traced-plain).Seconds()*1e3, 1)
	b.notes = append(b.notes, fmt.Sprintf("%s operation: %.3f ms untraced, %.3f ms traced", b.cfg.workload, plain.Seconds()*1e3, traced.Seconds()*1e3))

	for _, probe := range []func(context.Context, layerMetrics) error{
		b.probeSimnet, b.probeEngines, b.probeCalibration, b.probeExtended, b.probeGuidelines, b.probeServe,
	} {
		if err := probe(ctx, m); err != nil {
			return nil, err
		}
	}
	m.set("proc.heap_peak_mb", stopHeap(), 1)

	spans := b.tr.snapshot()
	m.set("trace.spans", float64(len(spans)), len(spans))
	self := selfTimes(spans)
	for _, layer := range []string{"simnet", "mpi", "experiment", "estimate", "guideline", "core", "serve", "wire"} {
		m.set("self."+layer+"_ms", self[layer].Seconds()*1e3, len(spans))
	}
	for layer, d := range self {
		b.notes = append(b.notes, fmt.Sprintf("self time %-10s %10.3f ms", layer, d.Seconds()*1e3))
	}
	path := filepath.Join(b.cfg.outDir, fmt.Sprintf("trace-%s-seed%d.json", b.cfg.workload, b.cfg.seed))
	if err := writeChromeTrace(path, spans); err != nil {
		return nil, err
	}
	b.notes = append(b.notes, "trace: "+path)
	return m, nil
}

// focusOnce runs the workload's operation once, traced when b.tr is set.
func (b *bench) focusOnce(ctx context.Context, st *state) time.Duration {
	op := b.tr.newOp()
	switch b.cfg.workload {
	case wlCalibrate:
		if b.tr == nil {
			d, _ := b.coldCalibrate(ctx)
			return d
		}
		sp := b.tr.start(op, 0, "core", "mpicollperf.Calibrate cold")
		d, _ := b.coldCalibrate(ctx, mpicollperf.WithMetrics(mpicollperf.NewMetricsRegistry()))
		sp.end()
		return d
	default: // wlSelect: one connection, a batch of sequential selects
		n := 2000
		t0 := time.Now()
		for i := 0; i < n; i++ {
			b.attempted++
			if st.sel.send(0, i, b.tr, op, 0) != nil {
				b.failed++
			}
		}
		return time.Since(t0)
	}
}

// perCall times f(n) reps times and returns the median nanoseconds per
// call, each batch recorded as one span.
func (b *bench) perCall(layer, name string, n, reps int, f func(n int)) float64 {
	op := b.tr.newOp()
	xs := make([]float64, 0, reps)
	for r := 0; r < reps; r++ {
		sp := b.tr.start(op, 0, layer, fmt.Sprintf("%s ×%d", name, n))
		t0 := time.Now()
		f(n)
		xs = append(xs, float64(time.Since(t0).Nanoseconds())/float64(n))
		sp.end()
	}
	return median(xs)
}

func (b *bench) scaled(n int) int {
	if b.cfg.tiny {
		return n / 20
	}
	return n
}

// probeSimnet times the simulator's two transfer primitives.
func (b *bench) probeSimnet(_ context.Context, m layerMetrics) error {
	quiet, err := b.pr.Network()
	if err != nil {
		return err
	}
	perturbed, err := b.pr.Perturbed(mpicollperf.RandomPerturbation(b.cfg.seed, 0.5, b.pr.Net.NICs())).Network()
	if err != nil {
		return err
	}
	var terr error
	transmit := func(net *simnet.Network) func(int) {
		return func(n int) {
			net.Reset()
			nodes := net.Nodes()
			now := 0.0
			for i := 0; i < n; i++ {
				src, dst := i%nodes, (i*7+1)%nodes
				if src == dst {
					dst = (dst + 1) % nodes
				}
				if _, err := net.Transmit(src, dst, 8192, now); err != nil && terr == nil {
					terr = err
				}
				now += 1e-6
			}
		}
	}
	n := b.scaled(200_000)
	m.set("simnet.transmit_ns", b.perCall("simnet", "simnet.Network.Transmit", n, 5, transmit(quiet)), 5)
	m.set("simnet.transmit_perturbed_ns", b.perCall("simnet", "simnet.Network.Transmit perturbed", n, 5, transmit(perturbed)), 5)
	const lanes = 8
	ports, err := quiet.NewPorts(lanes)
	if err != nil {
		return err
	}
	nics := ports.NICs()
	lt := quiet.TimingFor(0, 1, 8192)
	m.set("simnet.ports_transmit_ns", b.perCall("simnet", "simnet.Ports.Transmit", n, 5, func(n int) {
		now := 0.0
		for i := 0; i < n; i++ {
			src := i % nics
			ports.Transmit(i%lanes, src, (src+1+i/nics)%nics, lt, now, 1)
			now += 1e-6
		}
	}), 5)
	return terr
}

// probePoint is one grid point of the engine probe.
type probePoint struct {
	label  string
	procs  int
	mode   experiment.Mode
	stages []experiment.Op
}

// calibrationSizes is the paper's message grid; the probes sample its
// smallest and middle size.
var calibrationSizes = stats.LogSpaceBytes(8192, 4<<20, 10)

// probeGroup is the engine probe's share on one platform.
type probeGroup struct {
	pr  mpicollperf.Profile
	set experiment.Settings
	pts []probePoint
}

// engineGrid samples the grids of the three operations that simulate:
// the §4.2 broadcast+gather points of the calibration, the first
// algorithm of every extended family, and the guideline broadcasts on a
// perturbed platform.
func (b *bench) engineGrid() []probeGroup {
	sizes := []int{calibrationSizes[0], calibrationSizes[len(calibrationSizes)/2]}
	procs := b.pr.Nodes / 2
	seg := b.pr.SegmentSize
	const mg = 256 // the calibration's per-rank gather size
	var calib, ext, guide []probePoint
	for _, alg := range mpicollperf.BcastAlgorithms() {
		for _, sz := range sizes {
			calib = append(calib, probePoint{fmt.Sprintf("bcast+gather/%s m=%d", alg, sz), procs, experiment.RootTime, []experiment.Op{
				func(p *mpi.Proc) { coll.Bcast(p, alg, 0, coll.Synthetic(sz), seg) },
				func(p *mpi.Proc) {
					if p.Rank() == 0 {
						coll.Gather(p, coll.GatherLinearNoSync, 0, coll.Synthetic(mg*p.Size()), mg)
					} else {
						coll.Gather(p, coll.GatherLinearNoSync, 0, coll.Synthetic(mg), mg)
					}
				},
			}})
		}
	}
	for _, fam := range mpicollperf.Collectives() {
		specs, _ := mpicollperf.CollectiveSpecs(fam)
		spec := specs[0]
		for _, sz := range sizes {
			ext = append(ext, probePoint{fmt.Sprintf("%s m=%d", spec.Name, sz), procs, experiment.Completion,
				[]experiment.Op{func(p *mpi.Proc) { spec.Run(p, sz, seg) }}})
		}
	}
	h := b.harness(false, nil)
	base := h.Profiles[0]
	perturbed := base
	for _, cand := range perturbations(h, base) {
		if net, err := cand.Network(); err == nil && net.ReplayInvariant() {
			perturbed = cand
			break
		}
	}
	for _, alg := range mpicollperf.BcastAlgorithms() {
		for _, sz := range []int{1 << 10, 1 << 20} {
			guide = append(guide, probePoint{fmt.Sprintf("bcast/%s m=%d", alg, sz), 16, experiment.Completion,
				[]experiment.Op{func(p *mpi.Proc) { coll.Bcast(p, alg, 0, coll.Synthetic(sz), seg) }}})
		}
	}
	return []probeGroup{
		{b.pr, experiment.Settings{}, calib},
		{b.pr, experiment.Settings{}, ext},
		{perturbed, guidelineSettings, guide},
	}
}

// probeEngines measures every sampled grid point with each engine
// forced: the scheduler, a capture (plan recorded, echo-validated and
// published as the class template) and a rebind of that template. The
// three must agree bit for bit.
func (b *bench) probeEngines(_ context.Context, m layerMetrics) error {
	regs := [3]*obs.Registry{obs.NewRegistry(), obs.NewRegistry(), obs.NewRegistry()}
	var total [3]time.Duration
	names := [3]string{"scheduler", "capture", "rebind"}
	op := b.tr.newOp()
	points := 0
	for _, g := range b.engineGrid() {
		var runners [3]*mpi.Runner
		for i := range runners {
			net, err := g.pr.Network()
			if err != nil {
				return err
			}
			runners[i] = mpi.NewRunnerOn(net, mpi.Options{Metrics: regs[i]})
		}
		sched := g.set
		sched.Engine = experiment.EngineScheduler
		for _, pt := range g.pts {
			tmpl := mpi.NewTemplateStore()
			key := "perfbench/" + pt.label
			var means [3]float64
			for e := 0; e < 3; e++ {
				s, k, t := g.set, key, tmpl
				if e == 0 {
					s, k, t = sched, "", nil
				}
				sp := b.tr.start(op, 0, "mpi", "experiment.MeasureComposedClass "+names[e]+" "+pt.label)
				t0 := time.Now()
				meas, err := experiment.MeasureComposedClass(runners[e], g.pr, pt.procs, s, pt.mode, k, t, pt.stages...)
				total[e] += time.Since(t0)
				sp.end()
				if err != nil {
					return fmt.Errorf("engine probe %s (%s): %w", pt.label, names[e], err)
				}
				means[e] = meas.Mean
			}
			b.attempted++
			if means[0] != means[1] || means[0] != means[2] {
				b.failed++
				b.failures = append(b.failures, fmt.Sprintf("engines disagree on %s: %v", pt.label, means))
			}
		}
		points += len(g.pts)
	}
	n := float64(points)
	m.set("mpi.sched_point_ms", total[0].Seconds()*1e3/n, points)
	m.set("mpi.capture_point_ms", total[1].Seconds()*1e3/n, points)
	m.set("mpi.rebind_point_ms", total[2].Seconds()*1e3/n, points)
	perTransfer := func(d time.Duration, transfers int64) float64 {
		if transfers == 0 {
			return 0
		}
		return float64(d.Nanoseconds()) / float64(transfers)
	}
	schedTx := regs[0].Counter("mpi_transfers_total").Value()
	replayTx := regs[2].Counter("experiment_replay_transfers_total").Value()
	m.set("mpi.sched_ns_per_transfer", perTransfer(total[0], schedTx), int(schedTx))
	m.set("mpi.replay_ns_per_transfer", perTransfer(total[2], replayTx), int(replayTx))
	return nil
}

// histSum adds up every histogram whose name starts with prefix,
// returning the total of sums and of counts.
func histSum(reg *obs.Registry, prefix string) (sum float64, count int64) {
	for _, h := range reg.Snapshot().Histograms {
		if strings.HasPrefix(h.Name, prefix) {
			sum += h.Sum
			count += h.Count
		}
	}
	return sum, count
}

func counterSum(reg *obs.Registry, prefix string) int64 {
	var n int64
	for _, c := range reg.Snapshot().Counters {
		if strings.HasPrefix(c.Name, prefix) {
			n += c.Value
		}
	}
	return n
}

// probeCalibration calibrates three times: at the default worker count
// with a registry (sweep, fallback, single-flight and fit numbers, and
// CPU over wall clock), serially with a span per grid point from the
// sweep's progress callback (per-point time and engine counts), and
// warm against that run's cache (cost of a cache hit).
func (b *bench) probeCalibration(ctx context.Context, m layerMetrics) error {
	regA := obs.NewRegistry()
	c0, t0 := processCPU(), time.Now()
	b.coldCalibrate(ctx, mpicollperf.WithMetrics(regA))
	wall, cpu := time.Since(t0), processCPU()-c0
	m.set("experiment.parallel_efficiency", cpu.Seconds()/(wall.Seconds()*float64(runtime.GOMAXPROCS(0))), 1)
	sweepS, sweeps := histSum(regA, "sweep_run_seconds")
	m.set("experiment.sweep_s", sweepS, int(sweeps))
	m.set("experiment.fallbacks", float64(counterSum(regA, "experiment_fallbacks_total")), 1)
	m.set("experiment.capture_dedup", float64(regA.Counter("experiment_sweep_capture_dedup_total").Value()), 1)
	waitS, waits := histSum(regA, "experiment_sweep_singleflight_wait_seconds")
	m.set("experiment.singleflight_wait_ms", waitS*1e3, int(waits))
	fitS, fits := histSum(regA, "estimate_fit_seconds")
	if fits > 0 {
		m.set("estimate.fit_ms", fitS*1e3/float64(fits), int(fits))
	}

	regB := obs.NewRegistry()
	cache := mpicollperf.NewMeasurementCache()
	op := b.tr.newOp()
	root := b.tr.start(op, 0, "core", "core.CalibrateCtx workers=1")
	last := time.Now()
	var points []float64
	sel, err := core.CalibrateCtx(ctx, b.pr, estimate.AlphaBetaConfig{
		Workers: 1, Cache: cache, Metrics: regB,
		Progress: func(_, _ int, r experiment.Result) {
			now := time.Now()
			b.tr.record(op, root.ID(), "experiment", "experiment.Sweep point "+r.Point.String(), last, now)
			points = append(points, now.Sub(last).Seconds())
			last = now
		},
	})
	root.end()
	b.verify(chkCalibration, err, modelsDigest(sel))
	m.set("experiment.point_ms", median(points)*1e3, len(points))
	m.set("experiment.points_measured", float64(regB.Counter("sweep_points_measured_total").Value()), 1)
	m.set("mpi.captures", float64(regB.Counter("experiment_plan_templates_total").Value()), 1)
	m.set("mpi.rebinds", float64(regB.Counter("experiment_plan_rebinds_total").Value()), 1)
	m.set("mpi.reps_replay", float64(regB.Counter(obs.Name("experiment_reps_total", "engine", "replay")).Value()), 1)
	m.set("mpi.reps_scheduler", float64(regB.Counter(obs.Name("experiment_reps_total", "engine", "scheduler")).Value()), 1)
	m.set("mpi.sched_transfers", float64(regB.Counter("mpi_transfers_total").Value()), 1)
	m.set("mpi.replay_transfers", float64(regB.Counter("experiment_replay_transfers_total").Value()), 1)
	events, _ := histSum(regB, "mpi_plan_events")
	m.set("mpi.plan_events", events, 1)

	regC := obs.NewRegistry()
	sp := b.tr.start(b.tr.newOp(), 0, "core", "mpicollperf.Calibrate warm")
	d := b.calibrate(ctx, cache, mpicollperf.WithMetrics(regC))
	sp.end()
	if hits := regC.Counter("sweep_points_cached_total").Value(); hits > 0 {
		m.set("experiment.cache_hit_us", d.Seconds()*1e6/float64(hits), int(hits))
	}
	if _, ok := m["estimate.fit_ms"]; !ok {
		return fmt.Errorf("calibration probe recorded no fits")
	}
	if _, ok := m["experiment.cache_hit_us"]; !ok {
		return fmt.Errorf("warm calibration served no cached points")
	}
	return nil
}

// probeExtended times each extended family through the side door, and
// experiment.Measure directly on the sampled extended grid.
func (b *bench) probeExtended(ctx context.Context, m layerMetrics) error {
	op := b.tr.newOp()
	sp := b.tr.start(op, 0, "core", "mpicollperf.Calibrate for γ")
	g, err := b.gamma(ctx)
	sp.end()
	if err != nil {
		return err
	}
	_, perFam := b.extendedPass(ctx, g, op, 0)
	for _, fam := range mpicollperf.Collectives() {
		m.set("estimate.extended."+fam+"_s", perFam[fam], 1)
	}
	seg := b.pr.SegmentSize
	var pts []float64
	for _, fam := range mpicollperf.Collectives() {
		specs, _ := mpicollperf.CollectiveSpecs(fam)
		spec := specs[0]
		for _, sz := range []int{calibrationSizes[0], calibrationSizes[len(calibrationSizes)/2]} {
			net, err := b.pr.Network()
			if err != nil {
				return err
			}
			sp := b.tr.start(op, 0, "experiment", fmt.Sprintf("experiment.Measure %s m=%d", spec.Name, sz))
			t0 := time.Now()
			_, err = experiment.Measure(net, b.pr.Nodes/2, experiment.Settings{}, experiment.Completion, func(p *mpi.Proc) { spec.Run(p, sz, seg) })
			pts = append(pts, time.Since(t0).Seconds())
			sp.end()
			if err != nil {
				return err
			}
		}
	}
	m.set("experiment.measure_point_ms", median(pts)*1e3, len(pts))
	return nil
}

// probeGuidelines runs the guideline grid split into its base platforms
// and its perturbed platforms, plus the sanity family's model fit.
func (b *bench) probeGuidelines(ctx context.Context, m layerMetrics) error {
	reg := obs.NewRegistry()
	h := b.harness(false, reg)
	quiet := h
	quiet.RandomPerturbations = 0
	pert := h
	pert.RandomPerturbations = 0
	pert.Profiles = nil
	for _, base := range h.Profiles {
		pert.Profiles = append(pert.Profiles, perturbations(h, base)...)
	}
	op := b.tr.newOp()
	sp := b.tr.start(op, 0, "guideline", "guideline.Harness.Run base platforms")
	dq, _ := b.runGuidelines(ctx, "guidelines-quiet", quiet)
	sp.end()
	sp = b.tr.start(op, 0, "guideline", "guideline.Harness.Run perturbed platforms")
	dp, _ := b.runGuidelines(ctx, "guidelines-perturbed", pert)
	sp.end()
	checks := reg.Counter("guideline_checks_total").Value()
	if ref, ok := b.refs[chkGuidelines]; ok && ref != fmt.Sprintf("checks=%d violations=0", checks) {
		b.failures = append(b.failures, fmt.Sprintf("split guideline grid: %d checks, want %s", checks, ref))
		b.failed++
	}
	m.set("guideline.quiet_s", dq.Seconds(), 1)
	m.set("guideline.perturbed_s", dp.Seconds(), 1)
	m.set("guideline.checks", float64(checks), 1)
	m.set("guideline.violations", float64(reg.Counter("guideline_violations_total").Value()), 1)
	var fit time.Duration
	for _, base := range h.Profiles {
		sp := b.tr.start(op, 0, "estimate", "estimate.ModelsCtx "+base.Name)
		t0 := time.Now()
		_, _, err := estimate.ModelsCtx(ctx, base, estimate.AlphaBetaConfig{Procs: h.FitProcs, Settings: h.Settings})
		fit += time.Since(t0)
		sp.end()
		if err != nil {
			return err
		}
	}
	m.set("guideline.fit_s", fit.Seconds(), len(h.Profiles))
	return nil
}

// nullWriter is a ResponseWriter that keeps headers in a reused map and
// discards the body, so the handler probe measures the handler alone.
type nullWriter struct{ h http.Header }

func (w *nullWriter) Header() http.Header         { return w.h }
func (w *nullWriter) Write(p []byte) (int, error) { return len(p), nil }
func (w *nullWriter) WriteHeader(int)             {}

// rewindBody is a request body one request value can replay.
type rewindBody struct {
	data []byte
	off  int
}

func (r *rewindBody) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func (r *rewindBody) Close() error { return nil }

// sink keeps the BestFor probe's results live.
var sink int

// allocsPerCall runs f(n) and returns heap allocations per call.
func allocsPerCall(n int, f func(int)) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f(n)
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n)
}

// probeServe times the select path's pieces in process (BestFor, the
// wire codec, the whole handler), the calibration store, a daemon job,
// and an open loop's generator lateness.
func (b *bench) probeServe(ctx context.Context, m layerMetrics) error {
	op := b.tr.newOp()
	sp := b.tr.start(op, 0, "serve", "daemon set-up: POST /v1/calibrations until done")
	s, err := b.prepareSelect(ctx)
	sp.end()
	if err != nil {
		return err
	}
	defer s.close()
	m.set("serve.job_s", s.jobTime.Seconds(), 1)
	qs := s.queries
	n := b.scaled(100_000)

	bestFor := func(n int) {
		for i := 0; i < n; i++ {
			q := &qs[i%len(qs)]
			ch, _ := s.ref.BestFor(q.op, q.p, q.m)
			sink = ch.SegSize
		}
	}
	m.set("core.bestfor_ns", b.perCall("core", "core.Selector.BestFor", n, 5, bestFor), 5)
	m.set("core.bestfor_allocs", allocsPerCall(n, bestFor), n)

	var view wire.SelectRequestView
	m.set("wire.parse_ns", b.perCall("wire", "wire.ParseSelectRequest", n, 5, func(n int) {
		for i := 0; i < n; i++ {
			_ = wire.ParseSelectRequest(qs[i%len(qs)].body, &view) // the mix is well-formed by construction
		}
	}), 5)
	buf := make([]byte, 0, 256)
	m.set("wire.encode_ns", b.perCall("wire", "wire.AppendSelectResponse", n, 5, func(n int) {
		for i := 0; i < n; i++ {
			buf = wire.AppendSelectResponse(buf[:0], &qs[i%len(qs)].resp)
		}
	}), 5)

	w := &nullWriter{h: make(http.Header)}
	body := &rewindBody{}
	req := httptest.NewRequest(http.MethodPost, "/v1/select", nil)
	req.Body = body
	handler := func(n int) {
		for i := 0; i < n; i++ {
			body.data, body.off = qs[i%len(qs)].body, 0
			s.d.srv.ServeHTTP(w, req)
		}
	}
	handler(1) // first select of a profile resolves it into the hot table
	hn := n / 4
	m.set("serve.handler_us", b.perCall("serve", "serve.Server.ServeHTTP", hn, 5, handler)/1e3, 5)
	m.set("serve.handler_allocs", allocsPerCall(hn, handler), hn)

	pr, err := mpicollperf.Grisou().WithNodes(jobRequest().Nodes)
	if err != nil {
		return err
	}
	dir := filepath.Join(b.cfg.outDir, "store", fmt.Sprintf("%d-probe", os.Getpid()))
	defer os.RemoveAll(dir)
	store, err := serve.NewStore(dir, 8)
	if err != nil {
		return err
	}
	digest := serve.ProfileDigest(pr)
	var puts, gets []float64
	for i := 0; i < 20; i++ {
		sp := b.tr.start(op, 0, "serve", "serve.Store.Put")
		t0 := time.Now()
		err := store.Put(digest, s.ref)
		puts = append(puts, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return err
		}
	}
	for i := 0; i < 20; i++ {
		cold, err := serve.NewStore(dir, 8)
		if err != nil {
			return err
		}
		sp := b.tr.start(op, 0, "serve", "serve.Store.Get from disk")
		t0 := time.Now()
		_, err = cold.Get(pr, digest)
		gets = append(gets, time.Since(t0).Seconds())
		sp.end()
		if err != nil {
			return err
		}
	}
	m.set("serve.store_put_ms", median(puts)*1e3, len(puts))
	m.set("serve.store_get_ms", median(gets)*1e3, len(gets))

	open := openLoop(ctx, selectRate, time.Second, selectConns, s.do)
	b.attempted += open.Attempted
	b.failed += open.Failed
	m.set("serve.generator_late_us", median(open.Late)*1e6, len(open.Late))
	m.set("serve.errors", float64(s.d.reg.Counter(obs.Name("serve_errors_total", "endpoint", "select")).Value()+int64(open.Failed)), 1)
	return nil
}
